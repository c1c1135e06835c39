package sim

import "time"

// Flow is a lightweight simulated activity: a straight-line program of
// steps (sleep, resource acquire/release, calls) executed as chained
// engine events, with no goroutine and no channel handoffs. It is the
// cheap execution vehicle for the hot "sleep → do → done" task shape —
// per-task work in cluster instances, payload models in full-scale
// experiments — where goroutine-per-task costs dominate a run. Use Proc
// for control flow a straight-line program cannot express (loops,
// branching on wait results, Store operations).
//
// A flow is built step by step, then started:
//
//	fl := e.NewFlow()
//	fl.Sleep(setup)
//	fl.Acquire(disk, 1)
//	fl.SleepFn(transferTime) // duration drawn when the step runs
//	fl.Release(disk, 1)
//	fl.Do(finish)
//	fl.Start()
//
// Start schedules the program's first step at the current virtual time
// (like Spawn's start event); each Sleep schedules the continuation as a
// plain engine event and each Acquire parks the flow in the resource's
// FIFO queue alongside process waiters. A flow therefore produces
// exactly the same event-queue footprint — the same (time, seq) pattern
// — as the equivalent goroutine process, which is what keeps results
// bit-identical when a model switches a hot loop from Spawn to Flow.
//
// Guard/Finally give the one conditional the task shape needs: a Guard
// (or GuardSized) step whose predicate returns false skips forward to
// the Finally mark, so cleanup/bookkeeping steps still run when the work
// is abandoned.
//
// Flow structs and their step programs are pooled on the engine: when a
// program finishes, the struct returns to the free list and the next
// NewFlow reuses it, so steady-state flow execution allocates nothing
// beyond the closures the caller's own steps capture.
type Flow struct {
	e       *Engine
	steps   []flowStep
	pc      int
	finally int // step index Guard failures jump to; -1 = end of program
	started bool
	// advanceFn is the pre-bound continuation scheduled by sleeps and
	// queued by acquires — one closure per pooled struct, not per step.
	advanceFn func()
}

type stepKind uint8

const (
	stepSleep stepKind = iota
	stepSleepFn
	stepSleepSized
	stepAcquire
	stepRelease
	stepDo
	stepDoSized
	stepGuard
	stepGuardSized
)

// flowStep is one instruction. Fields are overlaid by kind: arg is the
// duration of stepSleep and the unit count of stepAcquire/stepRelease
// (with res); dfn for stepSleepFn; dsz+arg for stepSleepSized; do for
// stepDo; dosz+arg for stepDoSized; pred for stepGuard; predsz+arg for
// stepGuardSized. Pooled flows keep their step arrays, so the struct is
// kept small.
type flowStep struct {
	kind   stepKind
	arg    int64
	res    *Resource
	dfn    func() time.Duration
	dsz    func(int64) time.Duration
	do     func()
	dosz   func(int64)
	pred   func() bool
	predsz func(int64) bool
}

// NewFlow returns an empty flow program, recycled from the engine's free
// list when possible. The flow must be Started (or abandoned) before the
// engine finishes running.
func (e *Engine) NewFlow() *Flow {
	if n := len(e.flowFree); n > 0 {
		fl := e.flowFree[n-1]
		e.flowFree[n-1] = nil
		e.flowFree = e.flowFree[:n-1]
		return fl
	}
	fl := &Flow{e: e, finally: -1, steps: make([]flowStep, 0, flowStepsHint)}
	fl.advanceFn = fl.advance
	return fl
}

// flowStepsHint is the initial step capacity of a new flow: enough for a
// cluster task with a sleep and a file write in one allocation rather
// than a ladder of appends.
const flowStepsHint = 16

// Engine returns the engine this flow belongs to.
func (fl *Flow) Engine() *Engine { return fl.e }

// Now returns the current virtual time.
func (fl *Flow) Now() Time { return fl.e.now }

// Sleep appends a step that suspends the flow for d of virtual time.
// Negative d is clamped to zero (still yields to the engine once,
// matching Proc.Sleep).
func (fl *Flow) Sleep(d time.Duration) {
	fl.steps = append(fl.steps, flowStep{kind: stepSleep, arg: int64(d)})
}

// SleepFn appends a sleep whose duration is computed when the step runs,
// not when the program is built — so random draws (service times,
// jitter) happen at the same execution point, in the same order, as they
// would in the equivalent process code.
func (fl *Flow) SleepFn(dfn func() time.Duration) {
	fl.steps = append(fl.steps, flowStep{kind: stepSleepFn, dfn: dfn})
}

// SleepSized appends a sleep whose duration is computed at execution
// time as fn(arg). It exists so duration models parameterized by one
// value (a transfer size, a payload length) can pre-bind fn once and
// avoid a fresh capturing closure per step — the arg rides in the step
// itself.
func (fl *Flow) SleepSized(fn func(int64) time.Duration, arg int64) {
	fl.steps = append(fl.steps, flowStep{kind: stepSleepSized, dsz: fn, arg: arg})
}

// Acquire appends a step that obtains n units of r, waiting in r's FIFO
// queue if necessary.
func (fl *Flow) Acquire(r *Resource, n int) {
	fl.steps = append(fl.steps, flowStep{kind: stepAcquire, res: r, arg: int64(n)})
}

// Release appends a step that returns n units of r.
func (fl *Flow) Release(r *Resource, n int) {
	fl.steps = append(fl.steps, flowStep{kind: stepRelease, res: r, arg: int64(n)})
}

// Do appends a step that runs fn in engine context.
func (fl *Flow) Do(fn func()) {
	fl.steps = append(fl.steps, flowStep{kind: stepDo, do: fn})
}

// DoSized appends a step that runs fn(arg) in engine context — the
// pre-bindable counterpart of Do for per-item bookkeeping (see
// SleepSized).
func (fl *Flow) DoSized(fn func(int64), arg int64) {
	fl.steps = append(fl.steps, flowStep{kind: stepDoSized, dosz: fn, arg: arg})
}

// Guard appends a step that runs pred; when pred returns false the flow
// jumps to the Finally mark (or straight to completion if none is set),
// skipping the steps in between.
func (fl *Flow) Guard(pred func() bool) {
	fl.steps = append(fl.steps, flowStep{kind: stepGuard, pred: pred})
}

// GuardSized appends a guard whose predicate is evaluated as fn(arg) —
// the pre-bindable counterpart of Guard (see SleepSized), so a model can
// bind one predicate per activity family and pass the item's identity
// in the step.
func (fl *Flow) GuardSized(fn func(int64) bool, arg int64) {
	fl.steps = append(fl.steps, flowStep{kind: stepGuardSized, predsz: fn, arg: arg})
}

// Finally marks the current end of the program as the target Guard
// failures jump to. Steps appended after Finally run whether or not a
// Guard failed. At most one mark is meaningful; the last call wins.
func (fl *Flow) Finally() {
	fl.finally = len(fl.steps)
}

// Start schedules the program to begin at the current virtual time and
// counts the flow in LiveProcs until it completes. Like Spawn, the first
// step runs when the engine reaches the flow's start event, not inline.
func (fl *Flow) Start() {
	if fl.started {
		panic("sim: Flow started twice")
	}
	fl.started = true
	fl.e.nproc++
	fl.e.After(0, fl.advanceFn)
}

// advance executes steps from pc until the program parks (sleep or
// contended acquire) or completes. It runs in engine context.
func (fl *Flow) advance() {
	for fl.pc < len(fl.steps) {
		step := &fl.steps[fl.pc]
		fl.pc++
		switch step.kind {
		case stepSleep:
			fl.e.After(time.Duration(step.arg), fl.advanceFn)
			return
		case stepSleepFn:
			fl.e.After(step.dfn(), fl.advanceFn)
			return
		case stepSleepSized:
			fl.e.After(step.dsz(step.arg), fl.advanceFn)
			return
		case stepAcquire:
			r, n := step.res, int(step.arg)
			if n <= 0 || n > r.cap {
				panic("sim: Flow.Acquire n out of range")
			}
			if r.waiters.Len() == 0 && r.inUse+n <= r.cap {
				// Uncontended: take the units and keep executing,
				// exactly as Resource.Acquire returns immediately.
				r.inUse += n
				continue
			}
			r.waiters.Push(resWaiter{fn: fl.advanceFn, n: n})
			return
		case stepRelease:
			step.res.Release(int(step.arg))
		case stepDo:
			step.do()
		case stepDoSized:
			step.dosz(step.arg)
		case stepGuard:
			if !step.pred() {
				fl.skip()
			}
		case stepGuardSized:
			if !step.predsz(step.arg) {
				fl.skip()
			}
		}
	}
	fl.finish()
}

// skip jumps to the Finally mark, or to the end of the program if none
// is set: the effect of a failed guard.
func (fl *Flow) skip() {
	if fl.finally >= 0 {
		fl.pc = fl.finally
	} else {
		fl.pc = len(fl.steps)
	}
}

// finish retires a completed program to the free list.
func (fl *Flow) finish() {
	fl.e.nproc--
	// Clear captured closures so pooled programs do not pin old state.
	for i := range fl.steps {
		fl.steps[i] = flowStep{}
	}
	fl.steps = fl.steps[:0]
	fl.pc = 0
	fl.finally = -1
	fl.started = false
	fl.e.flowFree = append(fl.e.flowFree, fl)
}
