package dist

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/args"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

func TestPoolTelemetryPiggybackAndAggregation(t *testing.T) {
	a1 := startWorker(t, "alpha", 2, echoRunner("a"))
	a2 := startWorker(t, "beta", 2, echoRunner("b"))
	pool, err := Dial([]WorkerSpec{{Addr: a1}, {Addr: a2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec, _ := core.NewSpec("", pool.Slots())
	eng, _ := core.NewEngine(spec, pool)
	items := make([]string, 40)
	for i := range items {
		items[i] = fmt.Sprint(i)
	}
	stats, _, err := eng.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != 40 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}

	snaps := pool.WorkerSnapshots()
	if len(snaps) != 2 || snaps[0].Worker != "alpha" || snaps[1].Worker != "beta" {
		t.Fatalf("snapshots = %+v", snaps)
	}
	var totalOK int64
	for _, s := range snaps {
		if s.Slots != 2 || s.OK == 0 || s.Failed != 0 || s.UnixNano == 0 {
			t.Fatalf("snapshot %+v", s)
		}
		totalOK += s.OK
	}
	// Every result frame carries counters including the jobs it answers,
	// but the engine can finish before the last frame's snapshot is
	// filed, so the retained total may trail reality by up to the
	// in-flight window (one job per slot). It can never exceed it.
	if totalOK > 40 || totalOK < 40-int64(pool.Slots()) {
		t.Fatalf("fleet ok total = %d, want within %d of 40", totalOK, pool.Slots())
	}

	reg := telemetry.NewRegistry()
	pool.RegisterMetrics(reg)
	var sb strings.Builder
	reg.WriteText(&sb)
	out := sb.String()
	for _, line := range []string{
		`gopar_pool_slots{state="total"} 4`,
		`gopar_pool_slots{state="live"} 4`,
		`gopar_pool_slots{state="redialing"} 0`,
		`gopar_pool_slots{state="lost"} 0`,
		`gopar_worker_slots{worker="alpha"} 2`,
		`gopar_worker_slots{worker="beta"} 2`,
		`gopar_worker_busy{worker="alpha"} 0`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("missing %q in coordinator exposition:\n%s", line, out)
		}
	}
	if !strings.Contains(out, `gopar_worker_jobs_total{worker="alpha",outcome="ok"}`) {
		t.Fatalf("per-worker outcome series missing:\n%s", out)
	}
}

func TestPoolHealthTransitionsUnderInjectedWorkerLoss(t *testing.T) {
	// Worker loss is injected from a deterministic internal/faults outage
	// schedule: the nodes that fail are whichever the schedule dooms, so
	// the same fault model drives simulated clusters and this real pool.
	const nodes = 3
	outages := faults.NodeOutages(3, nodes, time.Hour, time.Hour, 0)
	doomed := map[int]bool{}
	for _, o := range outages {
		doomed[o.Node] = true
	}
	if len(doomed) == 0 || len(doomed) == nodes {
		t.Fatalf("outage schedule dooms %d/%d nodes; pick another seed", len(doomed), nodes)
	}

	specs := make([]WorkerSpec, nodes)
	kills := make([]func(), nodes)
	for i := 0; i < nodes; i++ {
		addr, kill := startKillableWorker(t, "127.0.0.1:0", fmt.Sprintf("n%d", i))
		specs[i] = WorkerSpec{Addr: addr}
		kills[i] = kill
	}

	var mu sync.Mutex
	var transitions []Health
	pool, err := Dial(specs,
		WithRedialBudget(1),
		WithHealthNotify(func(h Health) {
			mu.Lock()
			transitions = append(transitions, h)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if h := pool.Health(); h.Degraded() {
		t.Fatalf("pool degraded at dial: %+v", h)
	}

	for i, kill := range kills {
		if doomed[i] {
			kill()
		}
	}

	// Drive jobs through the degraded pool. Sessions notice peer loss
	// proactively — the session reader fails the moment the
	// TCP connection drops — so most jobs land on survivors and see no
	// error; at most one in-flight job per doomed worker can race the
	// detection and report a transport error.
	errs := 0
	for i := 1; i <= 20; i++ {
		if res := pool.Run(context.Background(), &core.Job{Seq: i, Args: []string{"x"}}); res.Err != nil {
			errs++
		}
	}
	if errs > len(doomed) {
		t.Fatalf("saw %d transport errors, want at most %d", errs, len(doomed))
	}

	// Budget 1 with 100ms backoff: doomed slots are written off fast.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := pool.Health()
		if h.Lost == len(doomed) && h.Redialing == 0 {
			if h.Total != nodes || h.Live != nodes-len(doomed) || !h.Degraded() {
				t.Fatalf("final health = %+v (doomed %d)", h, len(doomed))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never settled: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The notify hook saw the full transition history: degradation was
	// reported the moment the first slot broke, not discovered later.
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) < 2*len(doomed) {
		t.Fatalf("transitions = %d, want >= %d (retire + write-off per doomed slot)",
			len(transitions), 2*len(doomed))
	}
	first := transitions[0]
	if !first.Degraded() || first.Redialing < 1 || first.Lost != 0 {
		t.Fatalf("first transition = %+v, want immediate redialing degradation", first)
	}
	for _, h := range transitions {
		if h.Total != nodes {
			t.Fatalf("transition with wrong total: %+v", h)
		}
		if h.Live+h.Redialing+h.Lost > nodes {
			t.Fatalf("inconsistent transition: %+v", h)
		}
	}

	// Survivors still execute work at degraded capacity.
	res := pool.Run(context.Background(), &core.Job{Seq: 99, Args: []string{"y"}})
	if !res.OK() {
		t.Fatalf("survivor run failed: %+v", res)
	}
}
