package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/jobd"
	"repro/internal/mq"
	"repro/internal/wal"
)

const (
	// serveRate is the open loop's offered submits per second, well
	// below the service's capacity on a 2-CPU host (about 6,000 per
	// second), so the queue stays short even on a slowed host, and
	// high enough that the CPU time per job is mostly the service's
	// work, not the cost of waking an idle process for each submit.
	serveRate = 2500
	// historyJobs is the number of terminal jobs the state directory
	// holds before each restart.
	historyJobs = 20_000
	// serveSetupReps is how many restarts a pass makes; setup_s is the
	// median CPU time of one.
	serveSetupReps = 7
	// serveDrain bounds the wait for the last acked jobs to finish.
	serveDrain = 10 * time.Second
	queueName  = "bench"
)

// sleepPrecise blocks the calling thread in nanosleep(2) for ns
// nanoseconds. time.Sleep in an otherwise idle Go process wakes through
// the netpoller, whose timeout has millisecond granularity; at 2,000
// submits/s that granularity, not the service, would set the open
// loop's lateness.
func sleepPrecise(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// appendCommand appends the command submitted as job seq.
func appendCommand(dst []byte, seed uint64, seq int64) []byte {
	return appendRecord(append(dst, "echo "...), seed, seq, ' ')
}

// serveRun is one pass of serve-open. Per-job slices are indexed by
// i = seq - base; each element has one writing goroutine (generator,
// engine runner or watch reader) and is read only after all of them
// have stopped.
type serveRun struct {
	seed   uint64
	traced bool
	tr     *tracer
	// base is the seq of the first timed job, set once the watch stream
	// is attached; until then no seq is in range.
	base atomic.Int64
	n    int // timed jobs offered

	due, sent, acked []int64 // tracer ns; generator
	runStart, runEnd []int64 // engine runner
	finished         []int64 // watch reader; 0 = no finished event
	finishedOK       []bool
	nFinished        atomic.Int64
	badCommand       atomic.Int64
}

// index maps seq to its slice index, false for probes and history.
func (s *serveRun) index(seq int) (int, bool) {
	i := int64(seq) - s.base.Load()
	return int(i), i >= 0 && i < int64(s.n)
}

// serveRunner is the service's no-op runner: it checks the command the
// engine handed it and succeeds without forking.
type serveRunner struct{ s *serveRun }

func (r serveRunner) Run(ctx context.Context, job *core.Job) core.Result {
	t0 := r.s.tr.now()
	var buf [64]byte
	if job.Command != string(appendCommand(buf[:0], r.s.seed, int64(job.Seq))) {
		r.s.badCommand.Add(1)
	}
	now := time.Now()
	res := core.Result{Job: *job, Start: now, End: now}
	if i, ok := r.s.index(job.Seq); ok && r.s.traced {
		r.s.runStart[i], r.s.runEnd[i] = t0, r.s.tr.now()
	}
	return res
}

// serveStack is a running service: jobd.Server behind its HTTP handler
// on loopback, and a client.
type serveStack struct {
	srv    *jobd.Server
	hs     *http.Server
	served chan error
	hc     *http.Client
	client *jobd.Client
	base   string
}

func startServe(dir string, slots int, runner core.Runner) (*serveStack, error) {
	srv, err := jobd.New(jobd.Config{Dir: dir, Slots: slots, WALSync: wal.SyncInterval, Runner: runner})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveStack{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(l) }()
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	s.base = "http://" + l.Addr().String()
	s.client = jobd.NewClient(s.base, s.hc)
	return s, nil
}

// close stops the service: the job server first, which ends every watch
// stream, then the HTTP listener.
func (s *serveStack) close() error {
	err := s.srv.Close()
	if serr := s.hs.Shutdown(context.Background()); serr != nil {
		err = errors.Join(err, serr)
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.hc.CloseIdleConnections()
	return err
}

// probe submits job seq and waits until it is terminal and OK.
func (s *serveStack) probe(seed uint64, seq int64) error {
	ctx := context.Background()
	seqs, err := s.client.Submit(ctx, queueName, string(appendCommand(nil, seed, seq)))
	if err != nil {
		return err
	}
	if len(seqs) != 1 || int64(seqs[0]) != seq {
		return fmt.Errorf("probe got seqs %v, want [%d]", seqs, seq)
	}
	for {
		st, err := s.client.Status(ctx, queueName, seqs[0], 5*time.Second)
		if err != nil {
			return err
		}
		switch st.State {
		case "ok":
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("probe job %d ended %s", seq, st.State)
		}
	}
}

// buildHistory creates a state directory holding historyJobs terminal
// jobs of the seed and returns its WAL record count.
func buildHistory(dir string, seed uint64, slots int) (int, error) {
	h := &serveRun{seed: seed, tr: newTracer()}
	h.base.Store(math.MaxInt64 / 2)
	s, err := startServe(dir, slots, serveRunner{h})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	const batch = 500
	for seq := int64(1); seq <= historyJobs && err == nil; seq += batch {
		cmds := make([]string, 0, batch)
		for k := seq; k < seq+batch && k <= historyJobs; k++ {
			cmds = append(cmds, string(appendCommand(nil, seed, k)))
		}
		_, err = s.client.Submit(ctx, queueName, cmds...)
	}
	for err == nil {
		var st jobd.QueueStats
		if st, err = s.client.QueueStats(ctx, queueName); err == nil && st.OK == historyJobs {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	err = errors.Join(err, s.close())
	if n := h.badCommand.Load(); err == nil && n > 0 {
		err = fmt.Errorf("history: %d jobs ran the wrong command", n)
	}
	if err != nil {
		return 0, fmt.Errorf("building history: %w", err)
	}
	st, err := wal.Replay(filepath.Join(dir, queueName, "wal"))
	if err != nil {
		return 0, err
	}
	return st.Records, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// runServe is one pass of serve-open: restart the service over a copy
// of the history, then submit open-loop at serveRate for secs while one
// watch stream reports terminal events.
func runServe(rc *runCtx, traced bool, secs time.Duration) (*outcome, error) {
	if rc.history == "" {
		dir := filepath.Join(rc.workDir, "history")
		recs, err := buildHistory(dir, rc.seed, rc.nproc)
		if err != nil {
			return nil, err
		}
		rc.history, rc.historyRecords = dir, recs
	}
	n := int(math.Ceil(serveRate * secs.Seconds()))
	s := &serveRun{seed: rc.seed, traced: traced, tr: newTracer(), n: n,
		due: make([]int64, n), sent: make([]int64, n), acked: make([]int64, n),
		runStart: make([]int64, n), runEnd: make([]int64, n),
		finished: make([]int64, n), finishedOK: make([]bool, n)}
	s.base.Store(math.MaxInt64 / 2)
	o := newOutcome()

	var setups, setupWalls []float64
	var st *serveStack
	var stateDir string
	for i := 0; i < serveSetupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		stateDir = filepath.Join(rc.workDir, fmt.Sprintf("state-%d", i))
		if err := copyTree(rc.history, stateDir); err != nil {
			return nil, err
		}
		t0, c0 := time.Now(), cpuNS()
		var err error
		if st, err = startServe(stateDir, rc.nproc, serveRunner{s}); err != nil {
			return nil, err
		}
		if err := st.probe(rc.seed, historyJobs+1); err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, float64(cpuNS()-c0)/1e9)
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		o.attempted++
	}
	defer os.RemoveAll(stateDir)
	fsync0, err := scrapeFsyncs(st)
	if err != nil {
		st.close()
		return nil, err
	}

	// One watch stream reports every terminal event.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	watchDone := make(chan error, 1)
	watching := make(chan struct{})
	go func() {
		var once bool
		watchDone <- st.client.Watch(watchCtx, queueName, func(ev jobd.WatchEvent) error {
			if !once {
				once = true
				close(watching)
			}
			if ev.Type != "finished" && ev.Type != "killed" {
				return nil
			}
			if i, ok := s.index(ev.Seq); ok && s.finished[i] == 0 {
				s.finished[i] = s.tr.now()
				s.finishedOK[i] = ev.Type == "finished" && ev.OK
				s.nFinished.Add(1)
			}
			return nil
		})
	}()
	// The stream sends nothing until an event, so marker jobs (not
	// timed) run until one is seen: then it is attached.
	markers := 0
	for attached := false; !attached; {
		markers++
		err := st.probe(rc.seed, historyJobs+1+int64(markers))
		if err == nil && markers > 100 {
			err = errors.New("watch stream saw no event")
		}
		if err != nil {
			stopWatch()
			<-watchDone
			st.close()
			return nil, err
		}
		select {
		case <-watching:
			attached = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	base := int64(historyJobs + 2 + markers)
	s.base.Store(base)

	ctx := context.Background()
	sampler := startSampler(s.tr)
	startNS := s.tr.now()
	submitErrs := s.openLoop(startNS, int64(time.Second/serveRate), s.tr.now, sleepPrecise, func(i int) bool {
		seqs, err := st.client.Submit(ctx, queueName, string(appendCommand(nil, rc.seed, base+int64(i))))
		return err == nil && len(seqs) == 1 && int64(seqs[0]) == base+int64(i)
	})
	drainBy := time.Now().Add(serveDrain)
	for s.nFinished.Load() < int64(n-submitErrs) && time.Now().Before(drainBy) {
		time.Sleep(5 * time.Millisecond)
	}
	sampler.stopMB()
	// The service still holds every job of the history and the phase.
	heap := liveHeapMB()
	fsync1, scrapeErr := scrapeFsyncs(st)
	stopWatch()
	watchErr := <-watchDone
	closeErr := st.close()
	if err := errors.Join(scrapeErr, closeErr); err != nil {
		return nil, err
	}
	if watchErr != nil && !errors.Is(watchErr, context.Canceled) {
		return nil, fmt.Errorf("watch stream: %w", watchErr)
	}

	win, missed, lastFinished := s.latencies(startNS, secs)
	win.measureCPU(sampler)
	o.attempted += markers + n
	o.failed += submitErrs + missed + int(s.badCommand.Load())
	for i := 0; i < n; i++ {
		if s.finished[i] != 0 && !s.finishedOK[i] {
			o.failed++
		}
	}
	// The achieved rate: a backlog that grows delays the last
	// completion and lowers it below serveRate.
	o.wall["wall.jobs_per_s"] = ratio(float64(n-missed), float64(lastFinished-startNS)/1e9)
	o.wall["wall.latency_p50_us"] = win.latency(50)
	o.wall["wall.latency_p90_us"] = win.latency(90)
	o.e2e["cpu_us_per_job"] = win.cpuPerJob()
	o.e2e["setup_s"] = median(setups)
	o.e2e["live_heap_mb"] = heap
	o.info["setup_wall_s"] = median(setupWalls)
	if !traced {
		return o, nil
	}

	var late, rpc, ackRun, runTerm []float64
	for i := 0; i < n; i++ {
		late = append(late, float64(s.sent[i]-s.due[i])/1e6)
		rpc = append(rpc, float64(s.acked[i]-s.sent[i])/1e3)
		if s.runStart[i] != 0 {
			ackRun = append(ackRun, float64(s.runStart[i]-s.acked[i])/1e3)
		}
		if s.finished[i] != 0 && s.runEnd[i] != 0 {
			runTerm = append(runTerm, float64(s.finished[i]-s.runEnd[i])/1e3)
			job := s.tr.add("serve.job", s.due[i], s.finished[i], -1, base+int64(i))
			s.tr.add("jobd.submit", s.sent[i], s.acked[i], job, base+int64(i))
			s.tr.add("jobd.run", s.runStart[i], s.runEnd[i], job, base+int64(i))
		}
	}
	for _, xs := range [][]float64{late, rpc, ackRun, runTerm} {
		sort.Float64s(xs)
	}
	L := o.layer
	L["jobd.submit_rpc_us_p50"] = percentile(rpc, 50)
	L["jobd.submit_rpc_us_p90"] = percentile(rpc, 90)
	L["jobd.ack_to_run_us_p50"] = percentile(ackRun, 50)
	L["jobd.run_to_terminal_us_p50"] = percentile(runTerm, 50)
	L["jobd.watch_missed"] = float64(missed)
	L["bench.gen_late_ms_max"] = percentile(late, 100)
	walState, err := wal.Replay(filepath.Join(stateDir, queueName, "wal"))
	if err != nil {
		return nil, err
	}
	// The history, the set-up probe and the watch markers came before.
	L["wal.appends_per_job"] = float64(walState.Records-rc.historyRecords-2*(1+markers)) / float64(n)
	d := fsync1.sub(fsync0)
	L["wal.fsyncs"] = d.count
	L["wal.fsync_us_p50"] = d.quantileUS(0.5)
	L["wal.fsync_us_max"] = d.quantileUS(1)
	L["wal.replay_s"], L["mq.open_s"], err = timeReopen(rc)
	if err != nil {
		return nil, err
	}
	o.spans = s.tr.spans
	return o, nil
}

// openLoop offers job i at its due time start + i*interval, for i in
// [0, n). It sleeps only until a job is due and waits for nothing but
// the submit call itself, so a stall delays the sends after it instead
// of thinning the offered load. It records each job's due, send and ack
// times and returns the number of failed submits.
func (s *serveRun) openLoop(start, interval int64, now func() int64, sleep func(int64), submit func(i int) bool) int {
	errs := 0
	for i := 0; i < s.n; i++ {
		s.due[i] = start + int64(i)*interval
		if wait := s.due[i] - now(); wait > 0 {
			sleep(wait)
		}
		s.sent[i] = now()
		if !submit(i) {
			errs++
		}
		s.acked[i] = now()
	}
	return errs
}

// latencies measures every finished job from the time it was due, not
// the time it was sent, so the wait a stall imposes on the jobs queued
// behind it is counted (no coordinated omission). Jobs are grouped by
// the window they were due in. It also returns the jobs with no
// finished event and the last finish time.
func (s *serveRun) latencies(start int64, secs time.Duration) (win *windows, missed int, last int64) {
	win = newWindows(start, time.Second, secs)
	for i := 0; i < s.n; i++ {
		if s.finished[i] == 0 {
			missed++
			continue
		}
		win.add(s.due[i], float64(s.finished[i]-s.due[i])/1e3)
		last = max(last, s.finished[i])
	}
	return win, missed, last
}

// timeReopen times wal.Replay and mq.OpenTopic on fresh copies of the
// history, the two reads a restart makes; it returns the medians of
// three copies.
func timeReopen(rc *runCtx) (replayS, openS float64, err error) {
	var replays, opens []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(rc.workDir, fmt.Sprintf("reopen-%d", i))
		if err := copyTree(rc.history, dir); err != nil {
			return 0, 0, err
		}
		qdir := filepath.Join(dir, queueName)
		t0 := time.Now()
		st, err := wal.Replay(filepath.Join(qdir, "wal"))
		replays = append(replays, time.Since(t0).Seconds())
		if err != nil {
			return 0, 0, err
		}
		if len(st.Completed) != historyJobs {
			return 0, 0, fmt.Errorf("history replay: %d completed, want %d", len(st.Completed), historyJobs)
		}
		t0 = time.Now()
		topic, err := mq.OpenTopic(qdir, "jobs")
		opens = append(opens, time.Since(t0).Seconds())
		if err != nil {
			return 0, 0, err
		}
		if topic.Len() != historyJobs {
			err = fmt.Errorf("history topic: %d messages, want %d", topic.Len(), historyJobs)
		}
		if cerr := topic.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, 0, err
		}
	}
	return median(replays), median(opens), nil
}

// fsyncHist is the server's WAL fsync histogram as scraped from
// /metrics: cumulative bucket counts by upper bound (seconds).
type fsyncHist struct {
	bounds []float64
	cum    []float64
	count  float64
}

func scrapeFsyncs(s *serveStack) (fsyncHist, error) {
	resp, err := s.hc.Get(s.base + "/metrics")
	if err != nil {
		return fsyncHist{}, err
	}
	defer resp.Body.Close()
	var h fsyncHist
	sc := bufio.NewScanner(resp.Body)
	const name = "gopar_wal_fsync_seconds"
	for sc.Scan() {
		line := sc.Text()
		key, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(key, name) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return h, fmt.Errorf("metrics line %q: %w", line, err)
		}
		switch {
		case key == name+"_count":
			h.count = v
		case strings.HasPrefix(key, name+`_bucket{le="`):
			le := strings.TrimSuffix(strings.TrimPrefix(key, name+`_bucket{le="`), `"}`)
			b := math.Inf(1)
			if le != "+Inf" {
				if b, err = strconv.ParseFloat(le, 64); err != nil {
					return h, fmt.Errorf("metrics line %q: %w", line, err)
				}
			}
			h.bounds = append(h.bounds, b)
			h.cum = append(h.cum, v)
		}
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return h, err
	}
	if len(h.bounds) == 0 {
		return h, errors.New("/metrics has no " + name + " histogram")
	}
	return h, nil
}

func (h fsyncHist) sub(b fsyncHist) fsyncHist {
	d := fsyncHist{bounds: h.bounds, cum: make([]float64, len(h.cum)), count: h.count - b.count}
	for i := range h.cum {
		d.cum[i] = h.cum[i]
		if i < len(b.cum) {
			d.cum[i] -= b.cum[i]
		}
	}
	return d
}

// quantileUS returns the upper bound, in µs, of the bucket holding the
// q-th quantile: a histogram resolves no finer than its buckets. The
// open top bucket reports the last finite bound.
func (h fsyncHist) quantileUS(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	for i, c := range h.cum {
		if c >= q*h.count {
			b := h.bounds[i]
			if math.IsInf(b, 1) && i > 0 {
				b = h.bounds[i-1]
			}
			return b * 1e6
		}
	}
	return 0
}
