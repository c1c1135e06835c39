package sim

import "time"

// Program is a straight-line step program (sleep, resource
// acquire/release, calls) that runs as chained engine events, with no
// goroutine and no channel handoffs. It is the cheap execution vehicle
// for the hot "sleep → do → done" task shape — per-task work in cluster
// instances, payload models in full-scale experiments — where
// goroutine-per-task costs dominate a run. Use Proc for control flow a
// straight-line program cannot express (loops, branching on wait
// results, Store operations).
//
// A program is built once, then run any number of times, by any number
// of concurrent runs:
//
//	pg := sim.NewProgram()
//	pg.Sleep(setup)
//	pg.Acquire(disk, 1)
//	pg.SleepSized(transferTime) // transferTime(arg), drawn when the step runs
//	pg.Release(disk, 1)
//	pg.DoSized(finish)
//	for i := range items {
//		e.Start(pg, int64(i))
//	}
//
// Each Start is one run (a flow): a pooled record holding only the
// program, the run's position in it and the run's arg. The program is
// shared and never written while runs are in flight, so per-item data
// reaches a step through the arg, not through a closure or a constant
// built per item: the sized steps (SleepSized, DoSized, GuardSized) call
// a function bound once with the run's arg. A program that has started
// a run, or been appended to another, is sealed: adding a step to it
// panics.
//
// Start schedules the program's first step at the current virtual time
// (like Spawn's start event); each Sleep schedules the continuation as a
// plain engine event and each Acquire parks the run in the resource's
// FIFO queue alongside process waiters. A run therefore produces
// exactly the same event-queue footprint — the same (time, seq) pattern
// — as the equivalent goroutine process, which is what keeps results
// bit-identical when a model switches a hot loop from Spawn to a
// program.
//
// Guard/Finally give the one conditional the task shape needs: a Guard
// (or GuardSized) step whose predicate returns false skips forward to
// the Finally mark, so cleanup/bookkeeping steps still run when the work
// is abandoned.
type Program struct {
	steps   []flowStep
	finally int // 1 + the step index Guard failures jump to; 0 = end of program
	sealed  bool
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
// (with res); fn is the step's function for the other kinds, whose
// kind fixes its type (func() time.Duration for stepSleepFn,
// func(int64) for stepDoSized, and so on). The sized kinds take the
// run's arg, not a field.
type flowStep struct {
	kind stepKind
	arg  int64
	res  *Resource
	fn   any
}

// NewProgram returns an empty program. The program and room for its
// first programStepsHint steps are one allocation. A zero Program is
// also empty and ready to use.
func NewProgram() *Program {
	p := &struct {
		Program
		buf [programStepsHint]flowStep
	}{}
	p.steps = p.buf[:0]
	return &p.Program
}

// programStepsHint is the step capacity a new program starts with:
// enough for a cluster task program wrapping a sleep and a file write.
const programStepsHint = 16

// add appends one step to an unsealed program.
func (pg *Program) add(s flowStep) {
	pg.checkOpen()
	pg.steps = append(pg.steps, s)
}

// checkOpen panics when pg is sealed: runs or wrappers share its steps.
func (pg *Program) checkOpen() {
	if pg.sealed {
		panic("sim: Program changed after it has run or been appended")
	}
}

// Sleep appends a step that suspends the run for d of virtual time.
// Negative d is clamped to zero (still yields to the engine once,
// matching Proc.Sleep).
func (pg *Program) Sleep(d time.Duration) {
	pg.add(flowStep{kind: stepSleep, arg: int64(d)})
}

// SleepFn appends a sleep whose duration is computed when the step runs,
// not when the program is built — so random draws (service times,
// jitter) happen at the same execution point, in the same order, as they
// would in the equivalent process code.
func (pg *Program) SleepFn(dfn func() time.Duration) {
	pg.add(flowStep{kind: stepSleepFn, fn: dfn})
}

// SleepSized appends a sleep whose duration is computed when the step
// runs as fn(arg), with the run's arg: the way a per-item duration (a
// transfer size, a task's drawn runtime) reaches a shared program.
func (pg *Program) SleepSized(fn func(arg int64) time.Duration) {
	pg.add(flowStep{kind: stepSleepSized, fn: fn})
}

// Acquire appends a step that obtains n units of r, waiting in r's FIFO
// queue if necessary.
func (pg *Program) Acquire(r *Resource, n int) {
	if n <= 0 || n > r.cap {
		panic("sim: Program.Acquire n out of range")
	}
	pg.add(flowStep{kind: stepAcquire, res: r, arg: int64(n)})
}

// Release appends a step that returns n units of r.
func (pg *Program) Release(r *Resource, n int) {
	pg.add(flowStep{kind: stepRelease, res: r, arg: int64(n)})
}

// Do appends a step that runs fn in engine context.
func (pg *Program) Do(fn func()) {
	pg.add(flowStep{kind: stepDo, fn: fn})
}

// DoSized appends a step that runs fn(arg) in engine context with the
// run's arg — per-item bookkeeping in a shared program (see SleepSized).
func (pg *Program) DoSized(fn func(arg int64)) {
	pg.add(flowStep{kind: stepDoSized, fn: fn})
}

// Guard appends a step that runs pred; when pred returns false the run
// jumps to the Finally mark (or straight to completion if none is set),
// skipping the steps in between.
func (pg *Program) Guard(pred func() bool) {
	pg.add(flowStep{kind: stepGuard, fn: pred})
}

// GuardSized appends a guard whose predicate is evaluated as fn(arg)
// with the run's arg, so one predicate bound per activity family can
// check the item the run stands for.
func (pg *Program) GuardSized(fn func(arg int64) bool) {
	pg.add(flowStep{kind: stepGuardSized, fn: fn})
}

// Finally marks the current end of the program as the target Guard
// failures jump to. Steps appended after Finally run whether or not a
// Guard failed. At most one mark is meaningful; the last call wins.
func (pg *Program) Finally() {
	pg.checkOpen()
	pg.finally = len(pg.steps) + 1
}

// Append appends frag's steps to pg and seals frag: a payload fragment
// built once can be wrapped by any number of programs. frag must not
// carry a Finally mark, which would be lost in the wrapper.
func (pg *Program) Append(frag *Program) {
	if frag.finally != 0 {
		panic("sim: Append of a Program with a Finally mark")
	}
	pg.checkOpen()
	frag.sealed = true
	pg.steps = append(pg.steps, frag.steps...)
}

// flow is one run of a Program: the pooled run record. It holds no
// steps, only which program runs, where it is and what arg its sized
// steps receive, so the record is the same few words for any program.
type flow struct {
	e    *Engine
	prog *Program
	pc   int
	arg  int64
	// advanceFn is the pre-bound continuation scheduled by sleeps and
	// queued by acquires — one closure per pooled record, not per step.
	advanceFn func()
}

// flowChunk is how many run records Start allocates at once when the
// engine's free list is empty.
const flowChunk = 32

// Start begins one run of pg at the current virtual time, with arg
// handed to its sized steps, and counts the run in LiveProcs until it
// completes. Like Spawn, the first step runs when the engine reaches the
// run's start event, not inline. Run records are pooled on the engine,
// so a steady stream of runs allocates nothing. Every run must finish
// before the engine finishes running.
func (e *Engine) Start(pg *Program, arg int64) {
	if !pg.sealed {
		pg.sealed = true
	}
	if len(e.flowFree) == 0 {
		// Records come in chunks: fewer allocations, and records
		// started together sit together in memory.
		chunk := make([]flow, flowChunk)
		for i := range chunk {
			fl := &chunk[i]
			fl.e = e
			fl.advanceFn = fl.advance
			e.flowFree = append(e.flowFree, fl)
		}
	}
	n := len(e.flowFree) - 1
	fl := e.flowFree[n]
	e.flowFree[n] = nil
	e.flowFree = e.flowFree[:n]
	fl.prog, fl.arg = pg, arg
	e.nproc++
	e.After(0, fl.advanceFn)
}

// advance executes steps from pc until the run parks (sleep or
// contended acquire) or completes. It runs in engine context.
func (fl *flow) advance() {
	steps := fl.prog.steps
	for fl.pc < len(steps) {
		step := &steps[fl.pc]
		fl.pc++
		switch step.kind {
		case stepSleep:
			fl.e.After(time.Duration(step.arg), fl.advanceFn)
			return
		case stepSleepFn:
			fl.e.After(step.fn.(func() time.Duration)(), fl.advanceFn)
			return
		case stepSleepSized:
			fl.e.After(step.fn.(func(int64) time.Duration)(fl.arg), fl.advanceFn)
			return
		case stepAcquire:
			r, n := step.res, int(step.arg) // n checked when the step was built
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
			step.fn.(func())()
		case stepDoSized:
			step.fn.(func(int64))(fl.arg)
		case stepGuard:
			if !step.fn.(func() bool)() {
				fl.skip()
			}
		case stepGuardSized:
			if !step.fn.(func(int64) bool)(fl.arg) {
				fl.skip()
			}
		}
	}
	fl.finish()
}

// skip jumps to the Finally mark, or to the end of the program if none
// is set: the effect of a failed guard.
func (fl *flow) skip() {
	if f := fl.prog.finally; f > 0 {
		fl.pc = f - 1
	} else {
		fl.pc = len(fl.prog.steps)
	}
}

// finish retires a completed run's record to the free list.
func (fl *flow) finish() {
	fl.e.nproc--
	fl.prog, fl.pc, fl.arg = nil, 0, 0
	fl.e.flowFree = append(fl.e.flowFree, fl)
}
