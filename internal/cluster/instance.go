package cluster

import (
	"errors"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/sim"
)

// ErrNodeDown reports a task lost to a node crash: the node was down at
// launch, or crashed while the task was running.
var ErrNodeDown = errors.New("cluster: node down")

// Task is one simulated unit of work for an Instance.
type Task struct {
	// Seq is the 1-based sequence number.
	Seq int
	// Payload runs the task's work in virtual time. It may use every
	// node facility (NVMe, GPUs, Lustre via closure). A nil payload is
	// a no-op task (the stress-test null job).
	Payload func(p *sim.Proc, tc TaskContext) error
	// FlowPayload, when non-nil (and Payload nil), expresses the task's
	// work as a step fragment (sleeps, resource holds, filesystem ops)
	// run as a lightweight callback flow instead of a goroutine
	// process. The caller builds the fragment once and shares it
	// between tasks; the instance wraps each distinct fragment once in
	// a task program and starts that program per task. Its sized steps
	// receive the task's arg, from which SeqOf and SlotOf recover the
	// task's Seq and slot, so per-task data (a drawn duration, an
	// output size) is looked up by Seq rather than built into a
	// fragment per task. Eligible tasks — no Payload, no container
	// runtime, no UseCores, no staging — then run with no goroutine and
	// no channel handoffs, which is what makes million-task experiment
	// loops cheap. Flow payloads model infallible work; node crashes
	// are still detected and reported as ErrNodeDown. See sim.Program
	// for the execution model.
	FlowPayload *sim.Program
	// StageIn and StageOut, when positive, model data staging around
	// the payload (e.g. Lustre→NVMe copy-in, result copy-out). They
	// hold the task's slot but not launch capacity, and are reported
	// as distinct phases in lifecycle events.
	StageIn, StageOut time.Duration
}

// TaskContext tells a payload where it is running.
type TaskContext struct {
	Node *Node
	// Slot is the 1-based parallel slot ({%}).
	Slot int
	Seq  int
}

// TaskResult records one simulated task execution.
type TaskResult struct {
	Seq        int
	Slot       int
	Start, End sim.Time
	Err        error
}

// Duration returns the task's virtual runtime.
func (r TaskResult) Duration() time.Duration { return r.End - r.Start }

// InstanceConfig configures one simulated parallel instance.
type InstanceConfig struct {
	// Jobs is the slot count (-j). <=0 defaults to the node's core
	// count (GNU Parallel's default of one job per CPU thread).
	Jobs int
	// DispatchCost overrides the node profile's per-task dispatch cost
	// (0 = profile default). This is the knob the dispatch-cost
	// ablation sweeps.
	DispatchCost time.Duration
	// Runtime wraps every task in a container runtime (nil = bare
	// metal).
	Runtime *container.Runtime
	// UseCores, when true, additionally acquires one node core per
	// running task, so multiple instances on one node contend for CPU
	// threads realistically.
	UseCores bool
	// OnResult, when non-nil, receives each task result as it
	// completes (virtual-time order). When nil, results are discarded
	// unless Collect is set.
	OnResult func(TaskResult)
	// OnEvent, when non-nil, receives the same job-lifecycle events a
	// real engine publishes (core.Event), with virtual timestamps
	// mapped onto the Unix epoch — so telemetry built for live runs
	// (telemetry.Bus, RunMetrics, profile.LiveTrace) observes
	// simulated instances through the identical interface.
	OnEvent func(core.Event)
	// Collect retains results in Report.Results (off for million-task
	// runs).
	Collect bool
}

// Report summarizes an Instance run.
type Report struct {
	Results             []TaskResult
	Launched, Succeeded int
	Failed              int
	FirstStart, LastEnd sim.Time
	// DispatchBusy is total virtual time the dispatcher spent launching
	// — the instance's orchestration overhead.
	DispatchBusy time.Duration
}

// Makespan is LastEnd - FirstStart.
func (r *Report) Makespan() time.Duration {
	if r.LastEnd < r.FirstStart {
		return 0
	}
	return r.LastEnd - r.FirstStart
}

// instRun is the state of one RunParallel invocation: the report being
// accumulated, the slot free-list, the dispatcher's position in the task
// list, the per-slot state of in-flight flow tasks and the task program
// built for each distinct flow payload.
//
// The dispatcher is a chain of engine callbacks, not a process:
// dispatchNext waits for a slot, gotSlot acquires node-wide launch
// capacity, acquired pays the dispatch cost as one sleep event, and
// dispatched launches the task and calls dispatchNext again. Each step
// makes the same engine calls, in the same order, as a process looping
// over Get/Acquire/Sleep would, and runs inside the same grant, pump or
// timer event that would have woken that process — so the event order
// is the same, without a goroutine handoff per task. The calling
// process parks once, on the completion counter.
type instRun struct {
	n            *Node
	cfg          InstanceConfig
	tasks        []Task
	rep          *Report
	slots        *sim.Store[int]
	wg           *sim.Counter
	dispatchCost time.Duration
	flowEligible bool

	// next indexes the task being dispatched; slot and dStart belong to
	// it. One dispatch is in progress at a time.
	next   int
	slot   int
	dStart sim.Time

	// inflight holds the state of each running flow task, indexed by
	// slot-1: concurrent tasks always hold distinct slots.
	inflight []flowTask
	// lastFrag and lastProg are the payload fragment last launched and
	// its task program; programs holds every built program once a
	// second distinct fragment appears.
	lastFrag, lastProg *sim.Program
	programs           map[*sim.Program]*sim.Program

	// The chain's steps, bound once per instance.
	gotSlotFn    func(int, bool)
	acquiredFn   func()
	dispatchedFn func()
}

// flowTask is the state of one in-flight lightweight task. Flow payloads
// model infallible work, so the only error it can end with is
// ErrNodeDown.
type flowTask struct {
	dispatchDelay time.Duration
	start         sim.Time
	epoch         int
	down          bool
}

// seq returns the sequence number of task i.
func (st *instRun) seq(i int) int {
	if s := st.tasks[i].Seq; s != 0 {
		return s
	}
	return i + 1
}

// dispatchNext starts dispatching the next task, if any: queue it and
// wait for a free slot.
func (st *instRun) dispatchNext() {
	if st.next == len(st.tasks) {
		return
	}
	if st.cfg.OnEvent != nil {
		st.cfg.OnEvent(core.Event{Type: core.EventQueued, Seq: st.seq(st.next), Time: simWall(st.n.Eng.Now())})
	}
	st.slots.GetFlow(st.gotSlotFn)
}

// gotSlot holds a free slot; the serial dispatch cost is paid under the
// node-wide launch capacity.
func (st *instRun) gotSlot(slot int, _ bool) {
	st.slot = slot
	st.dStart = st.n.Eng.Now()
	st.n.Launch.AcquireFlow(1, st.acquiredFn)
}

func (st *instRun) acquired() {
	st.n.Eng.After(st.n.RNG.Jitter(st.dispatchCost, 0.05), st.dispatchedFn)
}

// dispatched ends one dispatch: release launch capacity, account for the
// time spent, start the task and move on to the next one.
func (st *instRun) dispatched() {
	n, rep := st.n, st.rep
	n.Launch.Release(1)
	now := n.Eng.Now()
	dispatchDelay := time.Duration(now - st.dStart)
	rep.DispatchBusy += now - st.dStart
	rep.Launched++
	task := st.tasks[st.next]
	task.Seq = st.seq(st.next)
	st.next++
	if st.cfg.OnEvent != nil {
		st.cfg.OnEvent(core.Event{Type: core.EventStarted, Seq: task.Seq, Slot: st.slot,
			Attempt: 1, Time: simWall(now)})
	}
	if st.flowEligible && task.Payload == nil && task.StageIn == 0 && task.StageOut == 0 {
		st.launch(task, st.slot, dispatchDelay)
	} else {
		if task.FlowPayload != nil {
			// Falling through to the process path would silently skip
			// the flow payload's work; make the misconfiguration loud.
			panic("cluster: Task.FlowPayload requires a flow-eligible config (no Runtime, no UseCores) and no Payload/staging")
		}
		st.spawn(task, st.slot, dispatchDelay)
	}
	st.dispatchNext()
}

// launch runs one eligible task as a flow of its payload's task program,
// with the task's Seq and slot as the run's arg.
func (st *instRun) launch(task Task, slot int, dispatchDelay time.Duration) {
	st.inflight[slot-1].dispatchDelay = dispatchDelay
	st.n.Eng.Start(st.program(task.FlowPayload), int64(task.Seq)<<32|int64(slot))
}

// SeqOf returns the task's Seq from the arg a flow payload's sized steps
// receive.
func SeqOf(arg int64) int { return int(arg >> 32) }

// SlotOf returns the task's 1-based slot from the arg a flow payload's
// sized steps receive.
func SlotOf(arg int64) int { return int(uint32(arg)) }

// program returns the task program for payload fragment frag (nil for a
// no-op task), building it on first use. The program mirrors the
// process task body step for step — same event scheduling pattern, same
// bookkeeping order — so switching a model from the process path to the
// flow path leaves seeded results bit-identical.
func (st *instRun) program(frag *sim.Program) *sim.Program {
	if st.lastProg != nil && frag == st.lastFrag {
		return st.lastProg
	}
	pg := st.programs[frag]
	if pg == nil {
		pg = sim.NewProgram()
		pg.DoSized(st.begin)
		pg.GuardSized(st.alive)
		if frag != nil {
			pg.Append(frag)
		}
		pg.Finally()
		pg.DoSized(st.finish)
		if st.lastProg != nil {
			if st.programs == nil {
				st.programs = map[*sim.Program]*sim.Program{st.lastFrag: st.lastProg}
			}
			st.programs[frag] = pg
		}
	}
	st.lastFrag, st.lastProg = frag, pg
	return pg
}

// begin is the flow counterpart of the task body's prologue: record the
// start time and crash epoch, and fail immediately when launched into a
// dead node.
func (st *instRun) begin(arg int64) {
	ft, n := &st.inflight[SlotOf(arg)-1], st.n
	ft.start = n.Eng.Now()
	ft.epoch = n.FailEpoch()
	ft.down = !n.Alive()
}

func (st *instRun) alive(arg int64) bool { return !st.inflight[SlotOf(arg)-1].down }

// finish is the flow counterpart of the task body's epilogue and
// deferred cleanup, in the same order: crash recheck, result
// bookkeeping, OnResult/Collect, the EventFinished emission, slot
// return and completion count.
func (st *instRun) finish(arg int64) {
	slot := SlotOf(arg)
	ft, n := &st.inflight[slot-1], st.n
	res := TaskResult{Seq: SeqOf(arg), Slot: slot, Start: ft.start, End: n.Eng.Now()}
	if ft.down || n.FailEpoch() != ft.epoch || !n.Alive() {
		// Launched into a dead node, or the node crashed while the
		// task was running: the work is gone.
		res.Err = ErrNodeDown
	}
	st.record(res)
	if st.cfg.OnEvent != nil {
		st.cfg.OnEvent(core.Event{Type: core.EventFinished, Seq: res.Seq,
			Slot: res.Slot, Attempt: 1, Time: simWall(res.End),
			OK: res.Err == nil, ExitCode: exitCodeFor(res.Err),
			Host: n.Hostname(), Duration: res.Duration(),
			DispatchDelay: ft.dispatchDelay,
			End:           simWall(res.End)})
	}
	st.slots.PutNow(res.Slot)
	st.wg.Done()
}

// record accounts for one finished task in the report and hands it to
// OnResult and Collect.
func (st *instRun) record(res TaskResult) {
	rep := st.rep
	if res.Err == nil {
		rep.Succeeded++
	} else {
		rep.Failed++
	}
	if res.Start < rep.FirstStart {
		rep.FirstStart = res.Start
	}
	if res.End > rep.LastEnd {
		rep.LastEnd = res.End
	}
	if st.cfg.OnResult != nil {
		st.cfg.OnResult(res)
	}
	if st.cfg.Collect {
		rep.Results = append(rep.Results, res)
	}
}

// spawn runs one task as a full simulated process: container runtime,
// core accounting, staging and Proc payloads need one.
func (st *instRun) spawn(task Task, slot int, dispatchDelay time.Duration) {
	n, cfg := st.n, &st.cfg
	n.Eng.Spawn("task", func(cp *sim.Proc) {
		defer func() {
			st.slots.Put(cp, slot)
			st.wg.Done()
		}()
		res := TaskResult{Seq: task.Seq, Slot: slot, Start: cp.Now()}
		var containerDur, stageInDur, stageOutDur time.Duration
		defer func() {
			if cfg.OnEvent != nil {
				cfg.OnEvent(core.Event{Type: core.EventFinished, Seq: task.Seq,
					Slot: slot, Attempt: 1, Time: simWall(res.End),
					OK: res.Err == nil, ExitCode: exitCodeFor(res.Err),
					Host: n.Hostname(), Duration: res.Duration(),
					DispatchDelay:  dispatchDelay,
					End:            simWall(res.End),
					ContainerStart: containerDur,
					StageIn:        stageInDur, StageOut: stageOutDur})
			}
		}()
		epoch := n.FailEpoch()
		if !n.Alive() {
			// Launched into a dead node: the fork itself fails.
			res.End = cp.Now()
			res.Err = ErrNodeDown
			st.record(res)
			return
		}
		var err error
		if cfg.Runtime != nil {
			// Container startup consumes launch capacity
			// (CPU-bound namespace/image setup) and may
			// serialize or fail per the runtime model.
			cStart := cp.Now()
			if cfg.Runtime.StartupOverhead > 0 {
				n.Launch.Acquire(cp, 1)
				cp.Sleep(cfg.Runtime.StartupOverhead)
				n.Launch.Release(1)
			}
			err = cfg.Runtime.Launch(cp)
			containerDur = time.Duration(cp.Now() - cStart)
		}
		if err == nil && task.StageIn > 0 {
			sStart := cp.Now()
			cp.Sleep(task.StageIn)
			stageInDur = time.Duration(cp.Now() - sStart)
		}
		if err == nil && task.Payload != nil {
			if cfg.UseCores {
				n.Cores.Acquire(cp, 1)
			}
			err = task.Payload(cp, TaskContext{Node: n, Slot: slot, Seq: task.Seq})
			if cfg.UseCores {
				n.Cores.Release(1)
			}
		}
		if err == nil && task.StageOut > 0 {
			sStart := cp.Now()
			cp.Sleep(task.StageOut)
			stageOutDur = time.Duration(cp.Now() - sStart)
		}
		if err == nil && (n.FailEpoch() != epoch || !n.Alive()) {
			// The node crashed while the task was running: the
			// work is gone, whatever the payload computed.
			err = ErrNodeDown
		}
		res.End = cp.Now()
		res.Err = err
		st.record(res)
	})
}

// RunParallel simulates one GNU-Parallel-style instance executing tasks on
// node n, called from process p (the "driver" shell). It blocks p until
// every task completes, mirroring `parallel -jN cmd ::: inputs` in a
// script, and returns the report.
//
// Dispatch semantics match internal/core's engine: a fixed pool of Jobs
// slots refilled greedily; the dispatcher serially pays DispatchCost per
// launch (the measured ~2.1ms that bounds one instance at ~470 procs/s),
// while launch work node-wide is capped by the node's Launch capacity
// (which bounds many instances at ~6,400 procs/s, Fig 3). The dispatcher
// runs as engine callbacks (see instRun); p parks once, until the last
// task completes.
//
// Tasks whose work is expressible as a straight-line flow — a nil or
// FlowPayload payload with no container runtime, core accounting, or
// staging — execute on the goroutine-free flow path; everything else
// runs as a full simulated process.
func (n *Node) RunParallel(p *sim.Proc, cfg InstanceConfig, tasks []Task) *Report {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = n.Profile.Cores
	}
	dispatchCost := cfg.DispatchCost
	if dispatchCost == 0 {
		dispatchCost = n.Profile.DispatchCost
	}

	// Slot free-list: concurrent tasks always hold distinct slot
	// numbers, which is what makes {%}-based GPU isolation sound.
	slots := sim.NewStore[int](n.Eng, jobs)
	for s := 1; s <= jobs; s++ {
		slots.Prefill(s)
	}
	rep := &Report{FirstStart: sim.Forever}
	if cfg.Collect {
		// One up-front arena: collecting a million-task run should cost
		// one allocation, not a realloc-and-copy ladder.
		rep.Results = make([]TaskResult, 0, len(tasks))
	}
	st := &instRun{n: n, cfg: cfg, tasks: tasks, rep: rep, slots: slots,
		wg: sim.NewCounter(n.Eng, len(tasks)), dispatchCost: dispatchCost,
		flowEligible: cfg.Runtime == nil && !cfg.UseCores}
	st.gotSlotFn = st.gotSlot
	st.acquiredFn = st.acquired
	st.dispatchedFn = st.dispatched
	if st.flowEligible {
		st.inflight = make([]flowTask, jobs)
	}
	st.dispatchNext()
	st.wg.Wait(p)
	if rep.FirstStart == sim.Forever {
		rep.FirstStart = 0
	}
	return rep
}

// simWall maps virtual time onto the wall clock for telemetry events:
// the simulation starts at the Unix epoch.
func simWall(t sim.Time) time.Time { return time.Unix(0, 0).UTC().Add(t) }

// exitCodeFor mirrors a simulated task error as a process exit status.
func exitCodeFor(err error) int {
	if err == nil {
		return 0
	}
	return 1
}

// NullTasks builds n no-op tasks (the stress-test payload: /bin/true).
func NullTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Seq: i + 1}
	}
	return tasks
}

// SleepTasks builds n tasks that each hold a slot for the given duration
// drawn per task by dur (e.g. a distribution closure), called in task
// order. The tasks run on the lightweight flow path and share one
// payload fragment, which finds its duration by the task's Seq.
func SleepTasks(n int, dur func(i int) time.Duration) []Task {
	durs := make([]time.Duration, n)
	sleep := sim.NewProgram()
	sleep.SleepSized(func(arg int64) time.Duration { return durs[SeqOf(arg)-1] })
	tasks := make([]Task, n)
	for i := range tasks {
		durs[i] = dur(i)
		tasks[i] = Task{Seq: i + 1, FlowPayload: sleep}
	}
	return tasks
}
