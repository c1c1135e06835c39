package dist

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/args"
	"repro/internal/core"
)

// startWorker launches a Serve goroutine on a loopback listener and
// returns its address.
func startWorker(t *testing.T, name string, slots int, runner core.Runner) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go Serve(ctx, l, WorkerConfig{Name: name, Slots: slots, Runner: runner})
	return l.Addr().String()
}

// poolSessions counts the live sessions behind the pool's slot tokens.
func poolSessions(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

func echoRunner(prefix string) core.FuncRunner {
	return func(ctx context.Context, job *core.Job) ([]byte, error) {
		return []byte(fmt.Sprintf("%s:%s\n", prefix, strings.Join(job.Args, ","))), nil
	}
}

func TestPoolSingleWorker(t *testing.T) {
	addr := startWorker(t, "w1", 4, echoRunner("w1"))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Slots() != 4 {
		t.Fatalf("slots = %d", pool.Slots())
	}
	res := pool.Run(context.Background(), &core.Job{Seq: 1, Args: []string{"x"}})
	if !res.OK() {
		t.Fatalf("res = %+v", res)
	}
	if string(res.Stdout) != "w1:x\n" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Host != "w1" {
		t.Fatalf("host = %q", res.Host)
	}
}

// slowStartRunner delays before its Start timestamp, creating a
// measurable worker-side receive-to-start gap.
type slowStartRunner struct{ delay time.Duration }

func (r slowStartRunner) Run(ctx context.Context, job *core.Job) core.Result {
	time.Sleep(r.delay)
	start := time.Now()
	return core.Result{Job: *job, ExitCode: 0, Start: start, End: time.Now()}
}

func TestPoolWorkerDispatchAttribution(t *testing.T) {
	addr := startWorker(t, "wd", 1, slowStartRunner{delay: 20 * time.Millisecond})
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res := pool.Run(context.Background(), &core.Job{Seq: 1})
	if !res.OK() {
		t.Fatalf("res = %+v", res)
	}
	// RecvNS is stamped when the worker reads the request; Start fires
	// ~20ms later, so the pool must attribute a worker-side dispatch
	// segment of at least that much.
	if res.WorkerDispatch < 20*time.Millisecond {
		t.Fatalf("WorkerDispatch = %v, want >= 20ms", res.WorkerDispatch)
	}
	if res.WorkerDispatch > 5*time.Second {
		t.Fatalf("WorkerDispatch = %v, implausibly large", res.WorkerDispatch)
	}
}

// TestPoolBatchedRoundTripOrderAndPayloads pushes enough concurrent
// jobs through one session to force multi-item frames in both
// directions, then checks every job's payload round-tripped intact and
// landed on the right seq.
func TestPoolBatchedRoundTripOrderAndPayloads(t *testing.T) {
	echo := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		out := fmt.Sprintf("%d:%s:%s", job.Seq, job.Args[0], string(job.Stdin))
		return []byte(out), nil
	})
	addr := startWorker(t, "batchy", 8, echo)
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const jobs = 200
	results := make([]core.Result, jobs)
	done := make(chan int, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			seq := i + 1
			results[i] = pool.Run(context.Background(), &core.Job{
				Seq:   seq,
				Args:  []string{fmt.Sprintf("arg%d", seq)},
				Stdin: []byte(fmt.Sprintf("in%d", seq)),
			})
			done <- i
		}(i)
	}
	for i := 0; i < jobs; i++ {
		<-done
	}
	for i, res := range results {
		seq := i + 1
		if !res.OK() {
			t.Fatalf("job %d failed: %+v", seq, res)
		}
		want := fmt.Sprintf("%d:arg%d:in%d", seq, seq, seq)
		if string(res.Stdout) != want {
			t.Fatalf("job %d stdout = %q, want %q (response mux mismatch)", seq, res.Stdout, want)
		}
	}
}

func TestPoolSlotCap(t *testing.T) {
	addr := startWorker(t, "w", 8, echoRunner("w"))
	pool, err := Dial([]WorkerSpec{{Addr: addr, Slots: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Slots() != 2 {
		t.Fatalf("slots = %d, want cap 2", pool.Slots())
	}
}

func TestEngineOverPool(t *testing.T) {
	// Full engine -> pool -> two workers. Work lands on both.
	var w1Jobs, w2Jobs atomic.Int64
	mk := func(counter *atomic.Int64, d time.Duration) core.FuncRunner {
		return func(ctx context.Context, job *core.Job) ([]byte, error) {
			counter.Add(1)
			time.Sleep(d)
			return []byte(job.Args[0] + "\n"), nil
		}
	}
	a1 := startWorker(t, "alpha", 2, mk(&w1Jobs, 5*time.Millisecond))
	a2 := startWorker(t, "beta", 2, mk(&w2Jobs, 5*time.Millisecond))
	pool, err := Dial([]WorkerSpec{{Addr: a1}, {Addr: a2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec, _ := core.NewSpec("", pool.Slots())
	var hosts sync.Map
	spec.OnResult = func(r core.Result) { hosts.Store(r.Host, true) }
	eng, _ := core.NewEngine(spec, pool)
	items := make([]string, 40)
	for i := range items {
		items[i] = fmt.Sprint(i)
	}
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Succeeded != 40 {
		t.Fatalf("stats = %+v", stats)
	}
	if w1Jobs.Load() == 0 || w2Jobs.Load() == 0 {
		t.Fatalf("work not distributed: alpha=%d beta=%d", w1Jobs.Load(), w2Jobs.Load())
	}
	if w1Jobs.Load()+w2Jobs.Load() != 40 {
		t.Fatalf("job count mismatch: %d", w1Jobs.Load()+w2Jobs.Load())
	}
	for _, h := range []string{"alpha", "beta"} {
		if _, ok := hosts.Load(h); !ok {
			t.Fatalf("no results from %s", h)
		}
	}
}

func TestPoolRealProcesses(t *testing.T) {
	addr := startWorker(t, "exec", 2, &core.ExecRunner{})
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res := pool.Run(context.Background(), &core.Job{Seq: 1, Command: "echo remote hello"})
	if !res.OK() || strings.TrimSpace(string(res.Stdout)) != "remote hello" {
		t.Fatalf("res = %+v stdout=%q", res, res.Stdout)
	}
	// Exit codes propagate.
	res = pool.Run(context.Background(), &core.Job{Seq: 2, Command: "sh -c 'exit 4'"})
	if res.ExitCode != 4 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
	// Stdin (pipe mode) propagates.
	res = pool.Run(context.Background(), &core.Job{Seq: 3, Command: "wc -l", Stdin: []byte("a\nb\n")})
	if strings.TrimSpace(string(res.Stdout)) != "2" {
		t.Fatalf("pipe stdout = %q", res.Stdout)
	}
	// Env propagates.
	res = pool.Run(context.Background(), &core.Job{Seq: 4, Command: "sh -c 'echo $DISTVAR'", Env: []string{"DISTVAR=over-tcp"}})
	if strings.TrimSpace(string(res.Stdout)) != "over-tcp" {
		t.Fatalf("env stdout = %q", res.Stdout)
	}
}

func TestPoolWorkerDeathAndRetry(t *testing.T) {
	// Worker 1 dies mid-run; retries land on worker 2 and the run
	// completes.
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	var served atomic.Int64
	go Serve(ctx1, l1, WorkerConfig{Name: "doomed", Slots: 1, Runner: core.FuncRunner(
		func(ctx context.Context, job *core.Job) ([]byte, error) {
			served.Add(1)
			time.Sleep(2 * time.Millisecond)
			return nil, nil
		})})
	a2 := startWorker(t, "survivor", 2, core.FuncRunner(
		func(ctx context.Context, job *core.Job) ([]byte, error) {
			time.Sleep(2 * time.Millisecond)
			return nil, nil
		}))

	pool, err := Dial([]WorkerSpec{{Addr: l1.Addr().String()}, {Addr: a2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Kill worker 1 after a few jobs have flowed.
	go func() {
		for served.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel1()
	}()

	spec, _ := core.NewSpec("", pool.Slots())
	spec.Retries = 4
	eng, _ := core.NewEngine(spec, pool)
	items := make([]string, 60)
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Succeeded != 60 {
		t.Fatalf("stats = %+v (worker death not absorbed)", stats)
	}
}

// startKillableWorker runs a minimal worker whose listener AND accepted
// connections can be torn down, simulating a node crash (Serve only
// closes its listener on ctx cancellation; established connections
// linger, which is realistic for a hung node but useless for testing
// hard crashes).
func startKillableWorker(t *testing.T, addr, name string) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var conns []net.Conn
	cfg := WorkerConfig{Name: name, Slots: 1, Runner: echoRunner(name)}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go serveConn(ctx, conn, cfg)
		}
	}()
	kill := func() {
		cancel()
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		conns = nil
		mu.Unlock()
	}
	t.Cleanup(kill)
	return l.Addr().String(), kill
}

func TestPoolHealthAndRedialBudget(t *testing.T) {
	// A worker that dies permanently: the broken slot burns its redial
	// budget, then is written off as Lost; the survivor keeps the pool
	// usable at degraded capacity instead of the redialer spinning
	// forever.
	a1, kill1 := startKillableWorker(t, "127.0.0.1:0", "dying")
	a2 := startWorker(t, "steady", 1, echoRunner("s"))

	pool, err := Dial(
		[]WorkerSpec{{Addr: a1}, {Addr: a2}},
		WithRedialBudget(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if h := pool.Health(); h.Total != 2 || h.Live != 2 || h.Degraded() {
		t.Fatalf("initial health = %+v", h)
	}

	// Kill worker 1 for good, then run jobs. The death surfaces either
	// as a transport error on a run that took the slot first, or — when
	// the session reader notices the closed connection first — as the
	// slot leaving Live before any run could pick it.
	kill1()
	var sawErr bool
	for i := 0; i < 2; i++ {
		res := pool.Run(context.Background(), &core.Job{Seq: i + 1, Args: []string{"x"}})
		if res.Err != nil {
			sawErr = true
		}
	}
	if h := pool.Health(); !sawErr && h.Live == 2 {
		t.Fatalf("worker death neither failed a run nor retired its slot: %+v", h)
	}

	// Budget 2 with 100ms+200ms backoff: the slot should be declared
	// lost well within a few seconds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := pool.Health()
		if h.Lost == 1 && h.Redialing == 0 {
			if h.Live != 1 || !h.Degraded() {
				t.Fatalf("degraded health = %+v", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never written off: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The surviving slot still executes work.
	res := pool.Run(context.Background(), &core.Job{Seq: 9, Args: []string{"y"}})
	if !res.OK() || res.Host != "steady" {
		t.Fatalf("survivor run = %+v", res)
	}
}

func TestPoolRedialRecovers(t *testing.T) {
	// A worker that comes back within the budget restores Live capacity.
	addr, kill1 := startKillableWorker(t, "127.0.0.1:0", "flaky")

	pool, err := Dial([]WorkerSpec{{Addr: addr}}, WithRedialBudget(20))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// A run either takes the slot before the session reader notices the
	// death and fails with a transport error, or finds no slot at all
	// (the retired session's tokens are withdrawn) and fails at its
	// deadline; the bound keeps the second case from waiting forever.
	kill1()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	res := pool.Run(ctx, &core.Job{Seq: 1, Args: []string{"x"}})
	cancel()
	if res.Err == nil {
		t.Fatal("expected an error from the dead worker")
	}

	// Resurrect the worker on the same address.
	startKillableWorker(t, addr, "flaky")

	deadline := time.Now().Add(15 * time.Second)
	for pool.Health().Live != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("slot never recovered: %+v", pool.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	res = pool.Run(context.Background(), &core.Job{Seq: 2, Args: []string{"y"}})
	if !res.OK() {
		t.Fatalf("post-recovery run = %+v", res)
	}
}

// TestSessionLossRetiresAllSlots kills a multiplexed worker mid-run
// and checks the whole slot block moves through Redialing to Lost —
// session death must not strand virtual tokens.
func TestSessionLossRetiresAllSlots(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var conns []net.Conn
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- conn
			go serveConn(ctx, conn, WorkerConfig{Name: "doomed", Slots: 3, Runner: echoRunner("d")})
		}
	}()

	pool, err := Dial([]WorkerSpec{{Addr: l.Addr().String()}}, WithRedialBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if h := pool.Health(); h.Total != 3 || h.Live != 3 {
		t.Fatalf("initial health = %+v", h)
	}
	if n := poolSessions(pool); n != 1 {
		t.Fatalf("pool holds %d sessions for one worker, want 1", n)
	}
	if res := pool.Run(context.Background(), &core.Job{Seq: 1, Args: []string{"x"}}); !res.OK() {
		t.Fatalf("warm-up job: %+v", res)
	}

	cancel()
	l.Close()
	for {
		select {
		case c := <-accepted:
			conns = append(conns, c)
			continue
		default:
		}
		break
	}
	for _, c := range conns {
		c.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		h := pool.Health()
		if h.Lost == 3 && h.Redialing == 0 && h.Live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session loss never fully accounted: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("empty worker list accepted")
	}
	if _, err := Dial([]WorkerSpec{{Addr: "127.0.0.1:1"}}); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

func TestProtocolVersionMismatch(t *testing.T) {
	// A fake worker speaking the wrong version is rejected.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte(`{"version":99,"name":"future","slots":1}` + "\n"))
		conn.Close()
	}()
	_, err = Dial([]WorkerSpec{{Addr: l.Addr().String()}})
	if err == nil {
		t.Fatal("version mismatch accepted")
	}
	if !strings.Contains(err.Error(), "version 99") || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("error %q does not name both versions", err)
	}
}

func TestPoolContextCancel(t *testing.T) {
	addr := startWorker(t, "slow", 1, core.FuncRunner(
		func(ctx context.Context, job *core.Job) ([]byte, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return nil, nil
			}
		}))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := pool.Run(ctx, &core.Job{Seq: 1, Args: []string{"x"}})
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancel did not unblock the pool")
	}
	if res.OK() {
		t.Fatal("cancelled job reported OK")
	}
	if res.Err == nil && !res.TimedOut {
		t.Fatalf("res = %+v", res)
	}
}

func TestJoblogRecordsRemoteHost(t *testing.T) {
	addr := startWorker(t, "hostx", 1, echoRunner("h"))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var log strings.Builder
	spec, _ := core.NewSpec("", 1)
	spec.Joblog = &log
	eng, _ := core.NewEngine(spec, pool)
	if _, _, err := eng.Run(context.Background(), args.Literal("a")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "\thostx\t") {
		t.Fatalf("joblog missing remote host: %q", log.String())
	}
	entries, err := core.ParseJoblog(strings.NewReader(log.String()))
	if err != nil || len(entries) != 1 || entries[0].Host != "hostx" {
		t.Fatalf("entries = %+v err=%v", entries, err)
	}
}

// BenchmarkPoolDispatch measures remote job round-trips per second over
// loopback — the distributed analogue of Fig 3's launch-rate ceiling.
func BenchmarkPoolDispatch(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	noop := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		return nil, nil
	})
	go Serve(ctx, l, WorkerConfig{Name: "bench", Slots: 8, Runner: noop})
	pool, err := Dial([]WorkerSpec{{Addr: l.Addr().String()}})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()

	spec, _ := core.NewSpec("", pool.Slots())
	eng, _ := core.NewEngine(spec, pool)
	items := make([]string, b.N)
	b.ResetTimer()
	start := time.Now()
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != b.N {
		b.Fatalf("stats=%+v err=%v", stats, err)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
}
