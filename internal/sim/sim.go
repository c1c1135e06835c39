// Package sim provides a deterministic discrete-event simulation (DES)
// kernel used to model HPC substrates (clusters, schedulers, filesystems,
// container runtimes) at scales far beyond what the local machine can run
// for real.
//
// The kernel has three layers:
//
//   - An event layer: a hand-rolled 4-ary min-heap of event values keyed
//     by (time, sequence) with a virtual clock. Callbacks scheduled with
//     At/After run in the engine goroutine in deterministic order.
//     Events are stored by value (no boxing, no per-event allocation in
//     steady state), so the event layer sustains tens of millions of
//     events per second — it is the load generator for every full-scale
//     experiment.
//
//   - A process layer (see Proc): simulated processes are goroutines that
//     cooperate with the engine through strict channel handoff, so exactly
//     one goroutine — either the engine or a single process — runs at any
//     moment. Proc structs and their resume channels are pooled across
//     spawns. Results are bit-for-bit reproducible for a given seed.
//
//   - A lightweight flow layer (see Program): straight-line "sleep → do
//     → done" activities run as chained event callbacks with no
//     goroutine and no channel handoffs, which is what makes
//     million-task model loops cheap. A step program is built once and
//     shared; each Start runs it as a flow, a pooled run record of
//     (program, position, arg) that holds no steps of its own. The sized
//     steps (SleepSized, DoSized, GuardSized) pass the run's arg to a
//     function bound once, so per-item data needs no closure and no
//     per-item program.
//     Engine-context code can also wait on the synchronization
//     primitives without a process: Resource.AcquireFlow and
//     Store.GetFlow queue a callback in the same FIFO as parked
//     processes, which is how a dispatcher loop runs as a callback
//     chain.
//
// Virtual time is a time.Duration offset from the simulation epoch.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp: the duration elapsed since the simulation
// epoch (t=0). It is a distinct concept from wall-clock time.
type Time = time.Duration

// Forever is a sentinel meaning "no deadline".
const Forever Time = math.MaxInt64

// event is one scheduled callback, stored by value inside the heap
// slice. The (at, seq) pair is the total order: seq breaks ties so
// same-timestamp events fire in scheduling order (FIFO).
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether a fires before b in the deterministic order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap does ~half
// the levels of a binary heap per sift at the cost of up to three extra
// comparisons per level; for the kernel's push/pop mix (every event is
// pushed and popped exactly once) the shallower tree wins, and the wider
// nodes are friendlier to the cache since siblings share lines.
const heapArity = 4

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// backSeq numbers back-band events (AtBack): cross-shard message
	// deliveries that must run after every normal event at the same
	// timestamp. Back events carry seq = backBand|backSeq, so the
	// ordinary (at, seq) comparison already places them last — the hot
	// path pays nothing for the second band.
	backSeq uint64
	// events is a heapArity-ary min-heap of event values ordered by
	// (at, seq). Index 0 is the root. No element holds its own index:
	// the kernel never removes from the middle, so events are
	// "index-free" and can be moved with plain copies.
	events  []event
	yield   chan struct{}
	rng     *RNG
	running bool
	// nproc counts live (spawned, unfinished) processes and flows, for
	// diagnostics.
	nproc int
	// procFree recycles Proc structs (and their resume channels) across
	// spawns; flowFree recycles program run records across runs.
	procFree []*Proc
	flowFree []*flow
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// streams derive from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		yield: make(chan struct{}),
		rng:   NewRNG(seed),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's root random stream. Components needing
// independent streams should use RNG().Split(name).
func (e *Engine) RNG() *RNG { return e.rng }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it indicates a logic error in the model. At performs no allocation in
// steady state (the heap slice grows amortized with the high-water mark
// of pending events).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// backBand is the seq-space bit that places an event after every normal
// event at the same timestamp. Normal seq values are counters (an engine
// would need ~9e18 events to reach it), so the two bands cannot collide.
const backBand uint64 = 1 << 63

// AtBack schedules fn at virtual time t in the back band: it runs after
// every normal event at t, including ones scheduled later (even from
// within back-band callbacks). Back-band events order FIFO among
// themselves. This is the delivery slot for cross-shard messages: a
// message timestamped t must not overtake the destination's own work at
// t, and that rule must hold identically whether the destination runs on
// a private sharded engine or interleaved with every other group on the
// serial oracle engine.
func (e *Engine) AtBack(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling back event at %v before now %v", t, e.now))
	}
	e.backSeq++
	e.push(event{at: t, seq: backBand | e.backSeq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// push inserts ev, sifting the hole up from the new leaf.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event, sifting the displaced last
// element down from the root.
func (e *Engine) pop() event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback reference for GC
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			child := i*heapArity + 1
			if child >= n {
				break
			}
			// Find the smallest of up to heapArity children.
			min := child
			end := child + heapArity
			if end > n {
				end = n
			}
			for j := child + 1; j < end; j++ {
				if h[j].before(&h[min]) {
					min = j
				}
			}
			if !h[min].before(&last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return root
}

// Step runs the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until none remain, and returns the final virtual
// time.
func (e *Engine) Run() Time {
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is ahead of the last event) and returns.
func (e *Engine) RunUntil(t Time) {
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunBefore executes events with timestamps strictly < t and returns,
// leaving the clock at the last executed event. It is the window
// primitive of the sharded scheduler: a shard may safely run everything
// before the epoch bound, because conservative lookahead guarantees no
// other shard can still send it a message timestamped earlier. Unlike
// RunUntil the clock is not advanced to t, so messages timestamped
// exactly at the bound can still be delivered before the next window.
func (e *Engine) RunBefore(t Time) {
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 && e.events[0].at < t {
		e.Step()
	}
}

// NextEventTime reports the timestamp of the earliest pending event.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// EventsScheduled reports how many events this engine has ever scheduled
// across both bands — a cheap progress meter for per-shard gauges.
func (e *Engine) EventsScheduled() uint64 { return e.seq + e.backSeq }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.events) }

// LiveProcs reports the number of spawned processes and started flows
// that have not finished. A nonzero value after Run returns usually means
// processes are deadlocked waiting on signals that will never fire.
func (e *Engine) LiveProcs() int { return e.nproc }
