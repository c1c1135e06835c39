package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestFlowBasicSequence(t *testing.T) {
	e := NewEngine(1)
	var doneAt Time
	calls := 0
	fl := e.NewFlow()
	fl.Sleep(2 * time.Second)
	fl.Do(func() { calls++ })
	fl.Sleep(3 * time.Second)
	fl.Do(func() { calls++; doneAt = e.Now() })
	fl.Start()
	if e.LiveProcs() != 1 {
		t.Fatalf("started flow not counted live: %d", e.LiveProcs())
	}
	e.Run()
	if calls != 2 || doneAt != 5*time.Second {
		t.Fatalf("calls=%d doneAt=%v, want 2 calls at 5s", calls, doneAt)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("finished flow still live: %d", e.LiveProcs())
	}
}

// TestFlowMatchesProcTiming runs the same contended model once with
// goroutine processes and once with flows, on identically seeded
// engines, and requires identical completion times — the bit-identity
// contract that lets models switch hot loops to the flow path.
func TestFlowMatchesProcTiming(t *testing.T) {
	const workers = 16
	const slots = 3
	model := func(useFlow bool) []Time {
		e := NewEngine(42)
		r := NewResource(e, slots)
		rng := e.RNG().Split("work")
		ends := make([]Time, 0, workers)
		record := func() { ends = append(ends, e.Now()) }
		for i := 0; i < workers; i++ {
			if useFlow {
				fl := e.NewFlow()
				fl.Acquire(r, 1)
				fl.SleepFn(func() time.Duration { return rng.DurExp(100 * time.Millisecond) })
				fl.Release(r, 1)
				fl.Do(record)
				fl.Start()
			} else {
				e.Spawn("w", func(p *Proc) {
					r.Acquire(p, 1)
					p.Sleep(rng.DurExp(100 * time.Millisecond))
					r.Release(1)
					record()
				})
			}
		}
		e.Run()
		return ends
	}
	procEnds := model(false)
	flowEnds := model(true)
	if len(procEnds) != workers || len(flowEnds) != workers {
		t.Fatalf("lengths %d / %d, want %d", len(procEnds), len(flowEnds), workers)
	}
	for i := range procEnds {
		if procEnds[i] != flowEnds[i] {
			t.Fatalf("diverged at %d: proc %v vs flow %v", i, procEnds[i], flowEnds[i])
		}
	}
}

func TestFlowGuardSkipsToFinally(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	fl := e.NewFlow()
	fl.Do(func() { trace = append(trace, "pre") })
	fl.Guard(func() bool { return false })
	fl.Do(func() { trace = append(trace, "skipped") })
	fl.Sleep(time.Hour)
	fl.Finally()
	fl.Do(func() { trace = append(trace, "finally") })
	fl.Start()
	end := e.Run()
	if end != 0 {
		t.Fatalf("end = %v, want 0 (guarded sleep skipped)", end)
	}
	if len(trace) != 2 || trace[0] != "pre" || trace[1] != "finally" {
		t.Fatalf("trace = %v, want [pre finally]", trace)
	}
}

func TestFlowGuardTruePassesThrough(t *testing.T) {
	e := NewEngine(1)
	ran := false
	fl := e.NewFlow()
	fl.Guard(func() bool { return true })
	fl.Sleep(time.Second)
	fl.Do(func() { ran = true })
	fl.Start()
	if end := e.Run(); end != time.Second || !ran {
		t.Fatalf("end=%v ran=%v, want 1s true", end, ran)
	}
}

func TestFlowGuardNoFinallySkipsToEnd(t *testing.T) {
	e := NewEngine(1)
	ran := false
	fl := e.NewFlow()
	fl.Guard(func() bool { return false })
	fl.Do(func() { ran = true })
	fl.Start()
	e.Run()
	if ran {
		t.Fatal("guarded step ran with no Finally mark")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("flow leaked: %d", e.LiveProcs())
	}
}

func TestFlowPooling(t *testing.T) {
	e := NewEngine(1)
	a := e.NewFlow()
	a.Sleep(time.Second)
	a.Start()
	e.Run()
	b := e.NewFlow()
	if a != b {
		t.Fatalf("Flow struct not recycled: %p vs %p", a, b)
	}
	// The recycled program must start empty.
	b.Do(func() {})
	b.Start()
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("live = %d", e.LiveProcs())
	}
}

func TestFlowStartTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	e := NewEngine(1)
	fl := e.NewFlow()
	fl.Sleep(time.Second)
	fl.Start()
	fl.Start()
}

func TestFlowAndProcShareResourceFIFO(t *testing.T) {
	// Flows and processes queue on the same resource; grants must honor
	// arrival order regardless of waiter kind.
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []string
	// Holder keeps the resource busy until t=1s so all others queue.
	e.Spawn("hold", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(time.Second)
		r.Release(1)
	})
	e.SpawnAt(time.Millisecond, "p1", func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "proc1")
		p.Sleep(time.Second)
		r.Release(1)
	})
	e.At(2*time.Millisecond, func() {
		fl := e.NewFlow()
		fl.Acquire(r, 1)
		fl.Do(func() { order = append(order, "flow") })
		fl.Sleep(time.Second)
		fl.Release(r, 1)
		fl.Start()
	})
	e.SpawnAt(3*time.Millisecond, "p2", func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "proc2")
		r.Release(1)
	})
	e.Run()
	want := []string{"proc1", "flow", "proc2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestFlowSleepFnDrawsAtExecution(t *testing.T) {
	// The duration callback must run when the step executes, not when
	// the program is built — the property that keeps RNG draw order
	// identical to process code.
	e := NewEngine(1)
	var drawnAt Time = -1
	fl := e.NewFlow()
	fl.Sleep(5 * time.Second)
	fl.SleepFn(func() time.Duration {
		drawnAt = e.Now()
		return time.Second
	})
	fl.Start()
	if drawnAt != -1 {
		t.Fatal("SleepFn callback ran at build time")
	}
	if end := e.Run(); end != 6*time.Second {
		t.Fatalf("end = %v, want 6s", end)
	}
	if drawnAt != 5*time.Second {
		t.Fatalf("draw happened at %v, want 5s", drawnAt)
	}
}

func TestFlowSleepSizedAndDoSized(t *testing.T) {
	e := NewEngine(1)
	var recorded int64
	dur := func(sz int64) time.Duration { return time.Duration(sz) * time.Millisecond }
	rec := func(sz int64) { recorded += sz }
	fl := e.NewFlow()
	fl.SleepSized(dur, 250)
	fl.DoSized(rec, 250)
	fl.Start()
	if end := e.Run(); end != 250*time.Millisecond {
		t.Fatalf("end = %v, want 250ms", end)
	}
	if recorded != 250 {
		t.Fatalf("recorded = %d, want 250", recorded)
	}
}

func TestFlowZeroAllocSteadyState(t *testing.T) {
	// With pre-bound callbacks, a recycled flow program must execute
	// without allocating: pooled struct, reused step slice, value
	// events.
	e := NewEngine(1)
	r := NewResource(e, 2)
	fn := func() {}
	// Warm-up: grow the step slice, the heap, and the pool.
	for i := 0; i < 8; i++ {
		fl := e.NewFlow()
		fl.Sleep(time.Microsecond)
		fl.Acquire(r, 1)
		fl.Sleep(time.Microsecond)
		fl.Release(r, 1)
		fl.Do(fn)
		fl.Start()
	}
	e.Run()
	allocs := testing.AllocsPerRun(500, func() {
		fl := e.NewFlow()
		fl.Sleep(time.Microsecond)
		fl.Acquire(r, 1)
		fl.Sleep(time.Microsecond)
		fl.Release(r, 1)
		fl.Do(fn)
		fl.Start()
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("allocs per flow task = %.1f, want 0", allocs)
	}
}

func TestStorePutNow(t *testing.T) {
	e := NewEngine(1)
	st := NewStore[int](e, 2)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, _ := st.Get(p)
			got = append(got, v)
		}
	})
	e.At(time.Second, func() { st.PutNow(7) })
	e.At(2*time.Second, func() { st.PutNow(8) })
	e.Run()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("got %v, want [7 8]", got)
	}
}

func TestStorePutNowFullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PutNow on full store did not panic")
		}
	}()
	e := NewEngine(1)
	st := NewStore[int](e, 1)
	st.PutNow(1)
	st.PutNow(2)
}

func TestFlowGuardSized(t *testing.T) {
	e := NewEngine(1)
	var trace []int64
	pass := func(arg int64) bool { trace = append(trace, arg); return arg%2 == 0 }
	record := func(arg int64) { trace = append(trace, -arg) }
	for _, arg := range []int64{2, 3} {
		fl := e.NewFlow()
		fl.GuardSized(pass, arg)
		fl.Sleep(time.Second)
		fl.DoSized(record, arg) // skipped when the guard fails
		fl.Finally()
		fl.DoSized(record, 10*arg)
		fl.Start()
	}
	end := e.Run()
	want := []int64{2, 3, -30, -2, -20}
	if end != time.Second || len(trace) != len(want) {
		t.Fatalf("end=%v trace=%v, want 1s %v", end, trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace=%v, want %v", trace, want)
		}
	}
}

// TestStoreGetFlowSharesGetterFIFO queues process and flow getters on an
// empty store and requires them served in arrival order, then checks a
// buffered item is handed over inline and a closed store reports !ok.
func TestStoreGetFlowSharesGetterFIFO(t *testing.T) {
	e := NewEngine(1)
	st := NewStore[int](e, 0)
	var order []string
	e.Spawn("p1", func(p *Proc) {
		v, _ := st.Get(p)
		order = append(order, fmt.Sprintf("p1=%d", v))
	})
	e.After(0, func() {
		st.GetFlow(func(v int, ok bool) { order = append(order, fmt.Sprintf("f1=%d", v)) })
	})
	e.Spawn("p2", func(p *Proc) {
		v, _ := st.Get(p)
		order = append(order, fmt.Sprintf("p2=%d", v))
	})
	e.At(time.Second, func() { st.PutNow(10); st.PutNow(11); st.PutNow(12) })
	e.Run()
	if got := fmt.Sprint(order); got != "[p1=10 f1=11 p2=12]" {
		t.Fatalf("getters served %s, want [p1=10 f1=11 p2=12]", got)
	}

	st.PutNow(13)
	inline := false
	st.GetFlow(func(v int, ok bool) { inline = v == 13 && ok })
	if !inline {
		t.Fatal("buffered item not handed over inline")
	}
	closed := 0
	st.GetFlow(func(v int, ok bool) { closed++; inline = ok })
	st.Close()
	e.Run()
	st.GetFlow(func(v int, ok bool) { closed++; inline = inline || ok })
	if closed != 2 || inline {
		t.Fatalf("closed store: %d callbacks, ok=%v; want 2, false", closed, inline)
	}
}

// TestGetFlowChainMatchesProcLoop runs a greedy dispatcher over a slot
// store twice — as a process looping Get/Acquire/Sleep and as a chain of
// GetFlow/AcquireFlow/After callbacks — and requires the same task
// timings and the same number of scheduled events: the chain takes the
// place of the process without moving a single event.
func TestGetFlowChainMatchesProcLoop(t *testing.T) {
	const ntasks, nslots = 40, 3
	model := func(chain bool) ([]Time, uint64) {
		e := NewEngine(7)
		slots := NewStore[int](e, nslots)
		for s := 1; s <= nslots; s++ {
			slots.Prefill(s)
		}
		launch := NewResource(e, 1)
		rng := e.RNG().Split("work")
		var ends []Time
		run := func(slot int) {
			fl := e.NewFlow()
			fl.SleepFn(func() time.Duration { return rng.DurExp(10 * time.Millisecond) })
			fl.Do(func() { ends = append(ends, e.Now()); slots.PutNow(slot) })
			fl.Start()
		}
		// A competing process contends for launch capacity throughout.
		e.Spawn("rival", func(p *Proc) {
			for i := 0; i < ntasks; i++ {
				launch.Use(p, 1, time.Millisecond)
			}
		})
		if chain {
			var next, slot int
			var gotSlot func(int, bool)
			var acquired, dispatched func()
			gotSlot = func(s int, _ bool) { slot = s; launch.AcquireFlow(1, acquired) }
			acquired = func() { e.After(rng.Jitter(2*time.Millisecond, 0.05), dispatched) }
			dispatched = func() {
				launch.Release(1)
				run(slot)
				if next++; next < ntasks {
					slots.GetFlow(gotSlot)
				}
			}
			e.Spawn("dispatcher", func(p *Proc) { slots.GetFlow(gotSlot) })
		} else {
			e.Spawn("dispatcher", func(p *Proc) {
				for i := 0; i < ntasks; i++ {
					slot, _ := slots.Get(p)
					launch.Acquire(p, 1)
					p.Sleep(rng.Jitter(2*time.Millisecond, 0.05))
					launch.Release(1)
					run(slot)
				}
			})
		}
		e.Run()
		return ends, e.EventsScheduled()
	}
	procEnds, procEvents := model(false)
	chainEnds, chainEvents := model(true)
	if len(procEnds) != ntasks || fmt.Sprint(procEnds) != fmt.Sprint(chainEnds) {
		t.Fatalf("task ends differ:\n proc  %v\n chain %v", procEnds, chainEnds)
	}
	if procEvents != chainEvents {
		t.Fatalf("events scheduled: proc %d, chain %d", procEvents, chainEvents)
	}
}
