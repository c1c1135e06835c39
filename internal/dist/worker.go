package dist

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// WorkerTelemetry tracks a worker's execution counters. Every Serve
// call keeps one (supplied or internal) and piggybacks a Snapshot on
// each result frame; gopard additionally exposes the same counters on
// its own /metrics endpoint via Register.
type WorkerTelemetry struct {
	name  string
	slots int

	busy    atomic.Int64
	started atomic.Int64
	ok      atomic.Int64
	failed  atomic.Int64
}

// NewWorkerTelemetry returns zeroed worker counters. Name and slots
// are filled in by Serve from its WorkerConfig.
func NewWorkerTelemetry() *WorkerTelemetry { return &WorkerTelemetry{} }

// Snapshot captures the current counters.
func (t *WorkerTelemetry) Snapshot() telemetry.Snapshot {
	return telemetry.Snapshot{
		Worker:   t.name,
		Slots:    t.slots,
		Busy:     int(t.busy.Load()),
		Started:  t.started.Load(),
		OK:       t.ok.Load(),
		Failed:   t.failed.Load(),
		UnixNano: time.Now().UnixNano(),
	}
}

// Register exposes the worker counters on reg under gopard_* names.
func (t *WorkerTelemetry) Register(reg *telemetry.Registry) {
	reg.GaugeFunc("gopard_slots", "Advertised concurrent job slots.",
		func() float64 { return float64(t.slots) })
	reg.GaugeFunc("gopard_busy", "Jobs executing right now.",
		func() float64 { return float64(t.busy.Load()) })
	reg.GaugeFunc("gopard_jobs_started_total", "Jobs received for execution.",
		func() float64 { return float64(t.started.Load()) })
	reg.GaugeFunc("gopard_jobs_finished_total", "Jobs finished, by outcome.",
		func() float64 { return float64(t.ok.Load()) }, telemetry.L("outcome", "ok"))
	reg.GaugeFunc("gopard_jobs_finished_total", "Jobs finished, by outcome.",
		func() float64 { return float64(t.failed.Load()) }, telemetry.L("outcome", "fail"))
}

// WorkerConfig configures Serve.
type WorkerConfig struct {
	// Name identifies this worker in joblogs (defaults to the
	// listener address).
	Name string
	// Slots advertised to coordinators: each connection runs up to this
	// many jobs at once. Defaults to 8.
	Slots int
	// Runner executes jobs (default: real processes via ExecRunner).
	Runner core.Runner
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, is the counter set snapshots are taken
	// from (share it with a metrics endpoint). Nil allocates an
	// internal one — result frames always carry telemetry either way.
	Telemetry *WorkerTelemetry
	// DeflateThreshold is the payload size (bytes) above which stdout
	// and stderr are shipped deflated. 0 means DefaultDeflateThreshold;
	// negative disables compression.
	DeflateThreshold int
	// Wire, when non-nil, accumulates framed-traffic counters (bytes,
	// frames, compression ratio) for this worker's connections.
	Wire *WireStats
}

// resolveDeflateMin maps the user-facing threshold convention (0 =
// default, negative = off) onto the codec's (0 = off).
func resolveDeflateMin(n int) int {
	switch {
	case n == 0:
		return DefaultDeflateThreshold
	case n < 0:
		return 0
	default:
		return n
	}
}

// Serve accepts coordinator connections on l and executes their jobs
// until ctx is done or the listener fails. Each connection is served by
// its own goroutine and runs up to cfg.Slots jobs at once (a pool opens
// one connection per worker and multiplexes its slots over it).
func Serve(ctx context.Context, l net.Listener, cfg WorkerConfig) error {
	if cfg.Slots < 1 {
		cfg.Slots = 8
	}
	if cfg.Name == "" {
		cfg.Name = l.Addr().String()
	}
	if cfg.Runner == nil {
		cfg.Runner = &core.ExecRunner{}
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = NewWorkerTelemetry()
	}
	cfg.Telemetry.name = cfg.Name
	cfg.Telemetry.slots = cfg.Slots
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		l.Close()
	}()
	defer close(done)

	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := serveConn(ctx, conn, cfg); err != nil && !errors.Is(err, context.Canceled) {
				logf("dist worker: connection from %s ended: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

func serveConn(ctx context.Context, conn net.Conn, cfg WorkerConfig) error {
	if cfg.Telemetry == nil { // Serve fills this in; guard direct callers
		cfg.Telemetry = NewWorkerTelemetry()
		cfg.Telemetry.name = cfg.Name
		cfg.Telemetry.slots = cfg.Slots
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if _, err := conn.Write(helloLine(hello{Version: protocolVersion, Name: cfg.Name, Slots: cfg.Slots})); err != nil {
		return err
	}
	// Deep buffers so full coalesced frames move in single syscalls.
	return serveConnV3(ctx, cfg, bufio.NewReaderSize(conn, v3BufSize), bufio.NewWriterSize(conn, v3BufSize))
}

func eofAsNil(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || err.Error() == "EOF" {
		return nil
	}
	return err
}

// jobItemV3 points one slot worker at one request inside a decoded
// (refcounted) jobs frame.
type jobItemV3 struct {
	fr  *jobsFrame
	idx int
}

// serveConnV3 serves the binary frames that follow the hello: requests arrive in CRC-checked
// binary frames and are decoded zero-copy into pooled frame buffers; a
// fixed pool of cfg.Slots goroutines executes them with one reused
// core.Job each, and responses leave through a coalescing writer that
// piggybacks one telemetry snapshot per frame. The steady-state path
// allocates nothing per job.
func serveConnV3(ctx context.Context, cfg WorkerConfig, br *bufio.Reader, bw *bufio.Writer) error {
	deflateMin := resolveDeflateMin(cfg.DeflateThreshold)
	respq := make(chan response, 4*cfg.Slots)
	writeErr := make(chan error, 1)
	go func() {
		writeErr <- v3ResultsLoop(bw, respq, cfg.Telemetry, deflateMin, cfg.Wire)
	}()

	jobq := make(chan jobItemV3, cfg.Slots)
	var jobs sync.WaitGroup
	for i := 0; i < cfg.Slots; i++ {
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			// One Job struct per slot goroutine, fully overwritten per
			// dispatch (core.Job is exactly the six wire fields).
			var job core.Job
			for it := range jobq {
				req := &it.fr.reqs[it.idx]
				resp := executeV3(ctx, cfg.Runner, cfg.Telemetry, &job, req, it.fr.recvNS)
				// The runner has returned, so nothing aliases the frame
				// any more (Runner contract: inputs are only valid
				// during Run); drop our reference before queueing the
				// response so the frame can recycle immediately.
				it.fr.release()
				respq <- resp // buffered ≥ 4×slots, ≤ slots in flight
			}
		}()
	}

	var readErr error
recvLoop:
	for {
		// Each frame is read into its own pooled buffer: the decoded
		// requests alias it until their jobs finish, so the reader must
		// not reuse it for the next frame.
		fr := getJobsFrame()
		typ, body, err := readFrameV3(br, &fr.buf, cfg.Wire)
		if err != nil || typ != frameJobsV3 {
			putJobsFrame(fr)
			if err == nil {
				err = errUnexpectedFrame
			}
			readErr = err
			break
		}
		if err := decodeJobsV3(body, fr); err != nil {
			putJobsFrame(fr)
			readErr = err
			break
		}
		if len(fr.reqs) == 0 {
			putJobsFrame(fr)
			continue
		}
		fr.recvNS = time.Now().UnixNano()
		fr.refs.Store(int32(len(fr.reqs)))
		for i := range fr.reqs {
			select {
			case jobq <- jobItemV3{fr: fr, idx: i}:
			case <-ctx.Done():
				// Drop this job's and all later undelivered refs so the
				// frame still recycles once in-flight jobs drain.
				fr.refs.Add(int32(i - len(fr.reqs)))
				readErr = ctx.Err()
				break recvLoop
			}
		}
	}
	close(jobq)
	jobs.Wait()
	close(respq)
	if werr := <-writeErr; werr != nil && eofAsNil(readErr) == nil {
		return werr
	}
	return eofAsNil(readErr)
}

// executeV3 runs one zero-copy decoded request. It fills a caller-owned
// Job and leaves telemetry to the writer, which piggybacks one snapshot
// per frame, keeping the per-job path allocation-free.
func executeV3(ctx context.Context, runner core.Runner, wt *WorkerTelemetry, job *core.Job, req *request, recvNS int64) response {
	job.Seq = req.Seq
	job.Slot = req.Slot
	job.Command = req.Command
	job.Args = req.Args
	job.Env = req.Env
	job.Stdin = req.Stdin
	runCtx := ctx
	if req.TimeoutNS > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNS))
		defer cancel()
	}
	wt.started.Add(1)
	wt.busy.Add(1)
	res := runner.Run(runCtx, job)
	wt.busy.Add(-1)
	resp := response{
		Seq:       res.Job.Seq,
		ExitCode:  res.ExitCode,
		Stdout:    res.Stdout,
		Stderr:    res.Stderr,
		StartNS:   res.Start.UnixNano(),
		EndNS:     res.End.UnixNano(),
		RecvNS:    recvNS,
		TimedOut:  res.TimedOut || (req.TimeoutNS > 0 && runCtx.Err() == context.DeadlineExceeded),
		SentBytes: res.StdinSent,
	}
	if res.Err != nil {
		resp.Err = res.Err.Error()
	}
	if res.OK() && !resp.TimedOut {
		wt.ok.Add(1)
	} else {
		wt.failed.Add(1)
	}
	return resp
}
