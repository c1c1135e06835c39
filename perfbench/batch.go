package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/args"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tmpl"
	"repro/internal/wal"
)

type batchKind int

const (
	// execLocal forks one real process per job on a local engine.
	execLocal batchKind = iota
	// dispatchDist ships jobs over loopback TCP to an in-process worker
	// whose runner echoes the command back without forking.
	dispatchDist
)

// batchTemplate is the job command: each job prints its two rendered
// args, like Fig 1's hostname+timestamp task.
const batchTemplate = "echo {1} {2}"

const (
	// setupReps is how many times a pass builds its stack; setup_s is
	// the median CPU time of one build, and the last stack built runs
	// the timed phase.
	setupReps = 25
	// ringSize bounds the jobs in flight whose stamps are kept; it must
	// exceed the engine's pipeline depth.
	ringSize = 1 << 16
	// distTraceStride traces one dispatch-dist job in this many, so the
	// span buffer of a ~100k jobs/s run stays a few tens of MB.
	distTraceStride = 8
	// execRate and distRate size a batch pass's input: secs x rate
	// records, about 0.7 x secs of work on a 2-CPU host, so a pass
	// still ends near secs when other guests take a third of the host's
	// CPU. A fixed input, not a fixed time, makes every run hold the
	// same jobs in its WAL and latency arrays, so heap and log figures
	// compare between runs.
	execRate = 1_500
	distRate = 30_000
	// inputGuard ends the input early on a host so slow that a pass
	// would take longer than this many times secs.
	inputGuard = 4
)

// Stamp indices of a batch job.
const (
	stNextStart = iota // Source.Next entered
	stNextEnd          // record returned: the job exists
	stRunStart         // Runner.Run entered
	stRunEnd           // Runner.Run returned
	stWorkStart        // worker-side runner entered (dispatch-dist)
	stWorkEnd          // worker-side runner returned
)

// batchRun is the state of one pass of a batch workload. Fields not
// marked otherwise are touched only by the engine's collector goroutine
// (OnResult) or after Run returns.
type batchRun struct {
	kind   batchKind
	seed   uint64
	traced bool
	stride int64
	tr     *tracer
	ring   *stampRing

	timing atomic.Bool // false while set-up probes run
	// lat and done hold each job's latency (µs) and completion time,
	// indexed by seq and sized to the input before the timed phase.
	lat    []float64
	done   []int64
	jobs   int
	bad    int
	expect []byte
	runSum atomic.Int64 // Σ Runner.Run, ns (any goroutine)

	fsyncMu sync.Mutex
	fsyncs  []float64 // µs
}

func (b *batchRun) sampled(seq int64) bool { return b.traced && seq%b.stride == 0 }

// expected returns the stdout job seq must produce.
func (b *batchRun) expected(seq int64) []byte {
	b.expect = b.expect[:0]
	if b.kind == dispatchDist {
		b.expect = append(b.expect, "echo "...)
	}
	b.expect = appendRecord(b.expect, b.seed, seq, ' ')
	if b.kind == execLocal {
		b.expect = append(b.expect, '\n')
	}
	return b.expect
}

func (b *batchRun) onResult(res core.Result) {
	end := b.tr.now()
	seq := int64(res.Job.Seq)
	if !b.timing.Load() {
		if !res.OK() || !bytes.Equal(res.Stdout, b.expected(seq)) {
			b.bad++
		}
		return
	}
	b.jobs++
	st, ok := b.ring.get(seq)
	if !ok || st[stRunStart] == 0 || seq >= int64(len(b.lat)) {
		b.bad++ // stamps overwritten: the ring is too small
	} else {
		b.lat[seq], b.done[seq] = float64(end-st[stRunStart])/1e3, end
	}
	if !res.OK() || !bytes.Equal(res.Stdout, b.expected(seq)) {
		b.bad++
	}
	if ok && b.sampled(seq) {
		job := b.tr.add("core.job", st[stNextEnd], end, -1, seq)
		b.tr.add("args.next", st[stNextStart], st[stNextEnd], -1, seq)
		if b.kind == execLocal {
			b.tr.add("core.exec", st[stRunStart], st[stRunEnd], job, seq)
		} else {
			run := b.tr.add("dist.pool_run", st[stRunStart], st[stRunEnd], job, seq)
			b.tr.add("dist.worker_run", st[stWorkStart], st[stWorkEnd], run, seq)
		}
		b.tr.add("core.collect", st[stRunEnd], end, job, seq)
	}
}

// timedSource wraps the engine's args.Source, stamping when each traced
// job's record was produced and how long its Next call took.
type timedSource struct {
	src args.Source
	b   *batchRun
	seq int64
}

func (s *timedSource) Next() ([]string, error) {
	t0 := s.b.tr.now()
	rec, err := s.src.Next()
	t1 := s.b.tr.now()
	if err == nil {
		s.seq++
		if s.b.sampled(s.seq) {
			s.b.ring.claim(s.seq)
			s.b.ring.set(s.seq, stNextStart, t0)
			s.b.ring.set(s.seq, stNextEnd, t1)
		}
	}
	return rec, err
}

// timedRunner wraps the engine's core.Runner (ExecRunner or dist.Pool).
type timedRunner struct {
	inner core.Runner
	b     *batchRun
}

func (r *timedRunner) Run(ctx context.Context, job *core.Job) core.Result {
	b, seq := r.b, int64(job.Seq)
	if !b.sampled(seq) {
		b.ring.claim(seq)
	}
	t0 := b.tr.now()
	b.ring.set(seq, stRunStart, t0)
	res := r.inner.Run(ctx, job)
	t1 := b.tr.now()
	b.ring.set(seq, stRunEnd, t1)
	b.runSum.Add(t1 - t0)
	return res
}

// echoRunner is the dispatch-dist worker's runner: it returns the
// rendered command as stdout without forking, stamping traced jobs.
type echoRunner struct{ b *batchRun }

func (r echoRunner) Run(ctx context.Context, job *core.Job) core.Result {
	seq := int64(job.Seq)
	traced := r.b.timing.Load() && r.b.sampled(seq)
	if traced {
		r.b.ring.set(seq, stWorkStart, r.b.tr.now())
	}
	now := time.Now()
	res := core.Result{Job: *job, Stdout: []byte(job.Command), Start: now, End: now}
	if traced {
		r.b.ring.set(seq, stWorkEnd, r.b.tr.now())
	}
	return res
}

// batchStack is one built set-up: engine, runner and, for
// dispatch-dist, the WAL, worker and pool.
type batchStack struct {
	eng    *core.Engine
	walDir string
	log    *wal.Log
	pool   *dist.Pool
	stop   context.CancelFunc
	served chan error
}

func (s *batchStack) close() error {
	var err error
	if s.pool != nil {
		s.pool.Close()
	}
	if s.stop != nil {
		s.stop()
		err = <-s.served
	}
	if s.log != nil {
		err = errors.Join(err, s.log.Close())
	}
	return err
}

// buildBatch builds the stack and pushes one probe job through it, so
// set-up ends when the stack has served a job.
func buildBatch(rc *runCtx, b *batchRun, idx int) (*batchStack, error) {
	n := rc.nproc
	s := &batchStack{}
	spec := &core.Spec{
		Jobs:     n,
		Template: tmpl.MustParse(batchTemplate),
		Retries:  1,
		Out:      io.Discard,
		Errout:   io.Discard,
		OnResult: b.onResult,
	}
	var inner core.Runner = &core.ExecRunner{}
	if b.kind == dispatchDist {
		s.walDir = filepath.Join(rc.workDir, fmt.Sprintf("wal-%d", idx))
		log, _, err := wal.Open(s.walDir, wal.Options{Sync: wal.SyncInterval, FsyncObserver: b.observeFsync})
		if err != nil {
			return nil, err
		}
		s.log = log
		spec.WAL = log
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		ctx, stop := context.WithCancel(context.Background())
		s.stop, s.served = stop, make(chan error, 1)
		go func() {
			s.served <- dist.Serve(ctx, l, dist.WorkerConfig{Slots: n, Runner: echoRunner{b}})
		}()
		pool, err := dist.Dial([]dist.WorkerSpec{{Addr: l.Addr().String(), Slots: n}})
		if err != nil {
			s.close()
			return nil, err
		}
		s.pool = pool
		inner = pool
	}
	runner := &timedRunner{inner: inner, b: b}
	eng, err := core.NewEngine(spec, runner)
	if err != nil {
		s.close()
		return nil, err
	}
	s.eng = eng
	// The probe runs on an engine of its own without the WAL, so the
	// timed run's log holds only its own seqs.
	probeSpec := *spec
	probeSpec.WAL = nil
	probe, err := core.NewEngine(&probeSpec, runner)
	if err == nil {
		_, _, err = probe.Run(context.Background(), args.Colsep(args.FromReader(
			bytes.NewReader(append(appendRecord(nil, b.seed, 1, ' '), '\n'))), " "))
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (b *batchRun) observeFsync(d time.Duration) {
	if !b.traced {
		return
	}
	b.fsyncMu.Lock()
	b.fsyncs = append(b.fsyncs, float64(d)/1e3)
	b.fsyncMu.Unlock()
}

// runBatch is one pass of exec-local or dispatch-dist: an engine at
// nproc slots runs secs x rate records of the seed.
func runBatch(rc *runCtx, kind batchKind, traced bool, secs time.Duration) (*outcome, error) {
	b := &batchRun{kind: kind, seed: rc.seed, traced: traced, stride: 1,
		tr: newTracer(), ring: newStampRing(ringSize)}
	if kind == dispatchDist {
		b.stride = distTraceStride
	}
	o := newOutcome()

	var setups, setupWalls []float64
	var s *batchStack
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0, c0 := time.Now(), cpuNS()
		var err error
		if s, err = buildBatch(rc, b, i); err != nil {
			return nil, err
		}
		setups = append(setups, float64(cpuNS()-c0)/1e9)
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
	}
	o.attempted += setupReps
	b.runSum.Store(0)
	b.fsyncMu.Lock()
	b.fsyncs = nil // the set-ups' fsyncs
	b.fsyncMu.Unlock()
	var wire0Frames, wire0Bytes uint64
	if s.pool != nil {
		w := s.pool.Wire()
		wire0Frames, wire0Bytes = w.FramesSent(), w.BytesSent()+w.BytesReceived()
	}

	rate := execRate
	if kind == dispatchDist {
		rate = distRate
	}
	n := int64(secs.Seconds() * float64(rate))
	b.lat, b.done = make([]float64, n+1), make([]int64, n+1)
	var src args.Source = args.Colsep(args.FromReader(&recordReader{seed: rc.seed, limit: n,
		deadline: time.Now().Add(inputGuard * secs)}), " ")
	if traced {
		src = &timedSource{src: src, b: b}
	}
	b.timing.Store(true)
	startNS := b.tr.now()
	rt0 := readRT()
	sampler := startSampler(b.tr)
	start := time.Now()
	_, _, runErr := s.eng.Run(context.Background(), src)
	wall := time.Since(start)
	sampler.stopMB()
	rt := readRT().sub(rt0)
	// Every job's latency, stamps and WAL entry are still held.
	heap := liveHeapMB()
	var walStats wal.Stats
	var wireFrames, wireBytes uint64
	if s.log != nil {
		walStats = s.log.Stats()
	}
	if s.pool != nil {
		w := s.pool.Wire()
		wireFrames, wireBytes = w.FramesSent()-wire0Frames, w.BytesSent()+w.BytesReceived()-wire0Bytes
	}
	closeErr := s.close()
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, closeErr
	}

	o.attempted += b.jobs
	o.failed += b.bad
	if s.walDir != "" {
		missing, err := walMissing(s.walDir, b.jobs)
		if err != nil {
			return nil, err
		}
		o.failed += missing
	}
	if b.jobs == 0 {
		return nil, errors.New("no job completed in the timed phase")
	}

	win := newWindows(startNS, time.Second, wall)
	for seq := 1; seq <= b.jobs && seq < len(b.lat); seq++ {
		win.add(b.done[seq], b.lat[seq])
	}
	win.measureCPU(sampler)
	o.e2e["cpu_us_per_job"] = win.cpuPerJob()
	o.e2e["setup_s"] = median(setups)
	o.e2e["live_heap_mb"] = heap
	o.wall["wall.jobs_per_s"] = win.rate()
	o.wall["wall.latency_p50_us"] = win.latency(50)
	o.wall["wall.latency_p90_us"] = win.latency(90)
	o.info["setup_wall_s"] = median(setupWalls)
	if !traced {
		return o, nil
	}

	jobs := float64(b.jobs)
	m := byName(b.tr.spans)
	L := o.layer
	L["args.next_ns"] = durP(m, "args.next", 50) * 1e3
	L["tmpl.render_ns"] = renderNS(rc.seed, b.jobs)
	L["core.slot_self_us"] = (float64(rc.nproc)*float64(wall.Nanoseconds()) - float64(b.runSum.Load())) / jobs / 1e3
	L["core.queue_wait_us_p50"] = selfP(m, "core.job", 50)
	L["core.collect_us_p50"] = durP(m, "core.collect", 50)
	L["runtime.mallocs_per_job"] = float64(rt.mallocs) / jobs
	L["runtime.gc_count"] = float64(rt.gcs)
	if kind == execLocal {
		L["core.exec_us_p50"] = durP(m, "core.exec", 50)
		L["core.exec_us_p90"] = durP(m, "core.exec", 90)
	} else {
		L["dist.pool_run_us_p50"] = durP(m, "dist.pool_run", 50)
		L["dist.worker_run_us_p50"] = durP(m, "dist.worker_run", 50)
		L["dist.wire_us_p50"] = selfP(m, "dist.pool_run", 50)
		L["dist.jobs_per_frame"] = ratio(jobs, float64(wireFrames))
		L["dist.bytes_per_job"] = float64(wireBytes) / jobs
		L["wal.appends_per_job"] = float64(walStats.Appended) / jobs
		L["wal.fsyncs"] = float64(len(b.fsyncs)) // the log is closed: no more writers
		sort.Float64s(b.fsyncs)
		L["wal.fsync_us_p50"] = percentile(b.fsyncs, 50)
		L["wal.fsync_us_max"] = percentile(b.fsyncs, 100)
	}
	o.spans = b.tr.spans
	return o, nil
}

// walMissing replays the run's log and counts seqs 1..jobs without a
// successful completion record.
func walMissing(dir string, jobs int) (int, error) {
	st, err := wal.Replay(dir)
	if err != nil {
		return 0, err
	}
	missing := 0
	for seq := 1; seq <= jobs; seq++ {
		if exit, ok := st.Completed[seq]; !ok || exit != 0 {
			missing++
		}
	}
	for seq := range st.Completed {
		if seq < 1 || seq > jobs {
			missing++ // a completion the engine never reported
		}
	}
	return missing, os.RemoveAll(dir)
}

// renderNS times Template.AppendRender over the workload's records
// (up to 100k of them) and returns the mean per render.
func renderNS(seed uint64, jobs int) float64 {
	n := min(jobs, 100_000)
	recs := make([][]string, n)
	for i := range recs {
		a, b, _ := bytes.Cut(appendRecord(nil, seed, int64(i+1), ' '), []byte(" "))
		recs[i] = []string{string(a), string(b)}
	}
	t := tmpl.MustParse(batchTemplate)
	buf := make([]byte, 0, 64)
	start := time.Now()
	for i, rec := range recs {
		buf, _ = t.AppendRender(buf[:0], tmpl.Context{Args: rec, Seq: i + 1, Slot: 1})
	}
	return float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
}
