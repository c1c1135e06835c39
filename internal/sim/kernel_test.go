package sim

import (
	"testing"
	"time"
)

// Edge cases and performance contracts of the rewritten event kernel.

func TestRunUntilNoEventsAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s (clock must advance with no events)", e.Now())
	}
	// A second RunUntil earlier than now must not move the clock back.
	e.RunUntil(3 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("now = %v after earlier RunUntil, want 5s", e.Now())
	}
}

func TestSameTimestampFIFOAtScale(t *testing.T) {
	// 10k same-timestamp events must fire in exact scheduling order:
	// this is the (time, seq) tie-break contract the heap rewrite must
	// preserve, at a scale where any comparison bug would scramble it.
	e := NewEngine(1)
	const n = 10000
	got := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time FIFO violated at %d: got %d", i, v)
		}
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	// Mixed timestamps inserted out of order across several batches:
	// the 4-ary sift paths must still yield a globally sorted firing
	// sequence.
	e := NewEngine(1)
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	// Descending then ascending then interleaved.
	for i := 100; i > 0; i-- {
		e.At(Time(i)*time.Millisecond, record)
	}
	for i := 101; i <= 200; i++ {
		e.At(Time(i)*time.Millisecond, record)
	}
	e.Run()
	if len(fired) != 200 {
		t.Fatalf("fired %d, want 200", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}

func TestLiveProcsLeakDetection(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	e.Spawn("stuck", func(p *Proc) {
		s.Wait(p) // never fired
	})
	e.Spawn("fine", func(p *Proc) { p.Sleep(time.Second) })
	e.Run()
	if got := e.LiveProcs(); got != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (the waiter parked on a never-fired signal)", got)
	}
}

func TestEventZeroAllocSteadyState(t *testing.T) {
	// The 0 allocs/event contract: once the heap slice has grown to the
	// working set's high-water mark, scheduling and firing events must
	// not allocate. This is what lets full-scale runs process hundreds
	// of millions of events without GC pressure.
	e := NewEngine(1)
	fn := func() {}
	// Warm up the heap slice.
	for i := 0; i < 64; i++ {
		e.After(time.Microsecond, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("allocs per event = %.1f, want 0", allocs)
	}
}

func TestProcPoolReuse(t *testing.T) {
	e := NewEngine(1)
	var first, second *Proc
	e.Spawn("a", func(p *Proc) { first = p })
	e.Run()
	e.Spawn("b", func(p *Proc) { second = p })
	e.Run()
	if first == nil || first != second {
		t.Fatalf("Proc struct not reused: %p vs %p", first, second)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

// BenchmarkEngineEvents measures raw event-layer throughput with a
// pre-bound callback: the steady-state cost of one push+pop+dispatch
// cycle, reported as events/s. This is the kernel's headline number.
func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine(1)
	n := b.N
	var fn func()
	fn = func() {
		if n > 0 {
			n--
			e.After(time.Microsecond, fn)
		}
	}
	e.After(time.Microsecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimProcs measures pooled goroutine-process throughput
// (spawn + sleep + retire), reported as procs/s.
func BenchmarkSimProcs(b *testing.B) {
	e := NewEngine(1)
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", body)
		if (i+1)%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "procs/s")
}

// BenchmarkFlowTasks measures the lightweight flow path on the hot task
// shape (sleep → acquire → sleep → release → bookkeeping), reported as
// tasks/s. Compare against BenchmarkSimProcs for the goroutine-vs-flow
// gap.
func BenchmarkFlowTasks(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, 4)
	done := 0
	pg := NewProgram()
	pg.Sleep(time.Microsecond)
	pg.Acquire(r, 1)
	pg.Sleep(time.Microsecond)
	pg.Release(r, 1)
	pg.Do(func() { done++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Start(pg, int64(i))
		if (i+1)%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
	if done != b.N {
		b.Fatalf("completed %d flows, want %d", done, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}
