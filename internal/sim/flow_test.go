package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

func TestFlowBasicSequence(t *testing.T) {
	e := NewEngine(1)
	var doneAt Time
	calls := 0
	pg := NewProgram()
	pg.Sleep(2 * time.Second)
	pg.Do(func() { calls++ })
	pg.Sleep(3 * time.Second)
	pg.Do(func() { calls++; doneAt = e.Now() })
	e.Start(pg, 0)
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
		pg := NewProgram()
		pg.Acquire(r, 1)
		pg.SleepFn(func() time.Duration { return rng.DurExp(100 * time.Millisecond) })
		pg.Release(r, 1)
		pg.Do(record)
		for i := 0; i < workers; i++ {
			if useFlow {
				e.Start(pg, 0)
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
	pg := NewProgram()
	pg.Do(func() { trace = append(trace, "pre") })
	pg.Guard(func() bool { return false })
	pg.Do(func() { trace = append(trace, "skipped") })
	pg.Sleep(time.Hour)
	pg.Finally()
	pg.Do(func() { trace = append(trace, "finally") })
	e.Start(pg, 0)
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
	pg := NewProgram()
	pg.Guard(func() bool { return true })
	pg.Sleep(time.Second)
	pg.Do(func() { ran = true })
	e.Start(pg, 0)
	if end := e.Run(); end != time.Second || !ran {
		t.Fatalf("end=%v ran=%v, want 1s true", end, ran)
	}
}

func TestFlowGuardNoFinallySkipsToEnd(t *testing.T) {
	e := NewEngine(1)
	ran := false
	var pg Program // the zero Program is empty, with no Finally mark
	pg.Guard(func() bool { return false })
	pg.Do(func() { ran = true })
	e.Start(&pg, 0)
	e.Run()
	if ran {
		t.Fatal("guarded step ran with no Finally mark")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("flow leaked: %d", e.LiveProcs())
	}
}

// TestFlowPooling checks that a finished run's record is recycled by
// the next Start, reset, and holds no step array of its own.
func TestFlowPooling(t *testing.T) {
	e := NewEngine(1)
	long := NewProgram()
	long.Sleep(time.Second)
	long.Sleep(time.Second)
	e.Start(long, 7)
	if len(e.flowFree) != flowChunk-1 {
		t.Fatalf("free list holds %d records after the first Start, want %d", len(e.flowFree), flowChunk-1)
	}
	e.Run()
	rec := e.flowFree[len(e.flowFree)-1]
	if len(e.flowFree) != flowChunk || rec.prog != nil || rec.pc != 0 || rec.arg != 0 {
		t.Fatalf("retired record not pooled and reset: %d free, %+v", len(e.flowFree), *rec)
	}
	var got int64 = -1
	short := NewProgram()
	short.DoSized(func(arg int64) { got = arg })
	e.Start(short, 3)
	if len(e.flowFree) != flowChunk-1 || rec.prog != short {
		t.Fatal("Start did not take the retired record")
	}
	if end := e.Run(); end != 2*time.Second || got != 3 || e.LiveProcs() != 0 {
		t.Fatalf("end=%v arg=%d live=%d, want 2s 3 0", end, got, e.LiveProcs())
	}
	// The record is a handful of words whatever the program: no step
	// array (a slice header alone is 24 bytes) rides in it.
	if sz := unsafe.Sizeof(flow{}); sz > 48 {
		t.Errorf("run record is %d bytes, want <= 48", sz)
	}
}

// TestProgramSealedOnceRun checks that a program is immutable once a run
// has started it or another program has appended it: its runs share the
// steps, so a later step would change work already in flight.
func TestProgramSealedOnceRun(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	e := NewEngine(1)
	run := NewProgram()
	run.Sleep(time.Second)
	e.Start(run, 0)
	e.Start(run, 1) // starting a program twice is the point of it
	mustPanic("step after Start", func() { run.Sleep(time.Second) })
	mustPanic("Finally after Start", func() { run.Finally() })

	frag := NewProgram()
	frag.Sleep(time.Second)
	wrap := NewProgram()
	wrap.Append(frag)
	mustPanic("step after Append", func() { frag.Sleep(time.Second) })
	marked := NewProgram()
	marked.Finally()
	mustPanic("Append of a Finally mark", func() { wrap.Append(marked) })
	e.Run()
}

// TestProgramAcquireOutOfRangePanics checks the unit count of an
// Acquire step when the step is built, not each time a run reaches it.
func TestProgramAcquireOutOfRangePanics(t *testing.T) {
	r := NewResource(NewEngine(1), 2)
	for _, n := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Acquire(r, %d) on a 2-unit resource did not panic", n)
				}
			}()
			NewProgram().Acquire(r, n)
		}()
	}
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
	pg := NewProgram()
	pg.Acquire(r, 1)
	pg.Do(func() { order = append(order, "flow") })
	pg.Sleep(time.Second)
	pg.Release(r, 1)
	e.At(2*time.Millisecond, func() { e.Start(pg, 0) })
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
	pg := NewProgram()
	pg.Sleep(5 * time.Second)
	pg.SleepFn(func() time.Duration {
		drawnAt = e.Now()
		return time.Second
	})
	e.Start(pg, 0)
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
	pg := NewProgram()
	pg.SleepSized(dur)
	pg.DoSized(rec)
	e.Start(pg, 250)
	if end := e.Run(); end != 250*time.Millisecond {
		t.Fatalf("end = %v, want 250ms", end)
	}
	if recorded != 250 {
		t.Fatalf("recorded = %d, want 250", recorded)
	}
}

func TestFlowZeroAllocSteadyState(t *testing.T) {
	// A run of a built program must execute without allocating: pooled
	// run record, shared steps, value events.
	e := NewEngine(1)
	r := NewResource(e, 2)
	pg := NewProgram()
	pg.Sleep(time.Microsecond)
	pg.Acquire(r, 1)
	pg.Sleep(time.Microsecond)
	pg.Release(r, 1)
	pg.DoSized(func(int64) {})
	// Warm-up: grow the heap and the pool.
	for i := 0; i < 8; i++ {
		e.Start(pg, int64(i))
	}
	e.Run()
	allocs := testing.AllocsPerRun(500, func() {
		e.Start(pg, 1)
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
	pg := NewProgram()
	pg.GuardSized(pass)
	pg.Sleep(time.Second)
	pg.DoSized(record) // skipped when the guard fails
	pg.Finally()
	pg.DoSized(func(arg int64) { record(10 * arg) })
	for _, arg := range []int64{2, 3} {
		e.Start(pg, arg)
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
		task := NewProgram()
		task.SleepFn(func() time.Duration { return rng.DurExp(10 * time.Millisecond) })
		task.DoSized(func(slot int64) { ends = append(ends, e.Now()); slots.PutNow(int(slot)) })
		run := func(slot int) { e.Start(task, int64(slot)) }
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

// goldenSharedProgram pins the event stream of digestSharedProgram: the
// (time, seq) of every event the engine pops, every callback in the
// order it ran with its arg and clock, and the final clock and counts.
const goldenSharedProgram = "5c8d290838adda63871b6c6ac724224f0c180aa64459d5cfbaffcb46646459e4"

// digestSharedProgram runs one step program as 48 concurrent runs on a
// single engine. The runs contend for two resources (one of them taken
// whole), a sized guard fails for every fifth run and skips to the
// Finally mark, and the sized steps read the run's arg, which packs a
// run id and a slot the way cluster instances do. RNG draws happen
// inside sized and unsized sleeps, so any change in step order or draw
// order moves the digest.
func digestSharedProgram() string {
	e := NewEngine(77)
	disk := NewResource(e, 3)
	bus := NewResource(e, 2)
	rng := e.RNG().Split("golden/program")
	h := sha256.New()
	rec := func(what string) func(int64) {
		return func(arg int64) { fmt.Fprintf(h, "%s %d %d\n", what, arg, e.Now()) }
	}
	begin, end := rec("begin"), rec("end")
	pass := func(arg int64) bool {
		fmt.Fprintf(h, "guard %d %d\n", arg, e.Now())
		return (arg>>32)%5 != 0
	}
	work := func(arg int64) time.Duration {
		return time.Duration(arg&0xff)*time.Millisecond + rng.DurExp(4*time.Millisecond)
	}
	jitter := func() time.Duration { return rng.Jitter(2*time.Millisecond, 0.5) }
	mid := func() { fmt.Fprintf(h, "mid %d\n", e.Now()) }

	pg := NewProgram()
	pg.DoSized(begin)
	pg.GuardSized(pass)
	pg.Acquire(disk, 1)
	pg.SleepSized(work)
	pg.SleepFn(jitter)
	pg.Do(mid)
	pg.Release(disk, 1)
	pg.Acquire(bus, 2)
	pg.Sleep(time.Millisecond)
	pg.Release(bus, 2)
	pg.Finally()
	pg.DoSized(end)
	start := func(i int) { e.Start(pg, int64(i)<<32|int64(i%4+1)) }
	for i := 0; i < 48; i++ {
		i := i
		if i < 16 {
			start(i) // a burst at t=0
			continue
		}
		e.At(time.Duration(i%8)*3*time.Millisecond, func() { start(i) })
	}
	for len(e.events) > 0 {
		fmt.Fprintf(h, "ev %d %d\n", e.events[0].at, e.events[0].seq)
		e.Step()
	}
	fmt.Fprintf(h, "end %d events %d live %d\n", e.Now(), e.EventsScheduled(), e.LiveProcs())
	return hex.EncodeToString(h.Sum(nil))
}

// TestSharedProgramGolden locks the shared-program scenario to the
// digest captured when every run still built its own step program,
// with its arg baked into each sized step.
func TestSharedProgramGolden(t *testing.T) {
	if got := digestSharedProgram(); got != goldenSharedProgram {
		t.Errorf("shared program digest changed:\n got  %s\n want %s", got, goldenSharedProgram)
	}
}
