package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// goldenInstanceMix pins the exact behaviour of RunParallel under
// contention: the full lifecycle event stream (type, seq, slot, virtual
// time), every TaskResult and report, the final clock and the number of
// events the engine scheduled. Any change to the dispatcher's event
// order, RNG draw order or slot assignment shows up here as a digest
// mismatch.
const goldenInstanceMix = "8469e161b6c22f230677d75fd250a8aa193c73da585c616467ea6134cf8a30de"

// digestInstanceMix runs 20 instances at once on one node, so more
// dispatchers than the node's Launch capacity (14) contend for it. Each
// instance has more tasks than slots, mixes flow tasks with spawned
// process tasks (plain and staged), and the node crashes and recovers
// mid-run so both task paths see ErrNodeDown.
func digestInstanceMix() (digest string, reps []*Report, launchQueue int) {
	e := sim.NewEngine(4242)
	c := New(e, Frontier(), 1)
	n := c.Nodes[0]
	work := e.RNG().Split("golden/work")
	flowWork := sim.NewProgram()
	flowWork.SleepFn(func() time.Duration { return work.DurExp(40 * time.Millisecond) })
	n.NVMe.FlowCreateAndWrite(flowWork, 256)

	const instances, jobs, perInstance = 20, 4, 23
	h := sha256.New()
	reps = make([]*Report, instances)
	for i := 0; i < instances; i++ {
		i := i
		tasks := make([]Task, perInstance)
		for t := range tasks {
			switch t % 3 {
			case 0:
				tasks[t].FlowPayload = flowWork
			case 1:
				tasks[t].Payload = func(p *sim.Proc, tc TaskContext) error {
					p.Sleep(work.DurExp(30 * time.Millisecond))
					if tc.Seq%7 == 0 {
						return errors.New("task failed")
					}
					return nil
				}
			case 2:
				if t%2 == 0 {
					tasks[t].StageIn = 5 * time.Millisecond
					tasks[t].StageOut = 3 * time.Millisecond
				}
			}
		}
		cfg := InstanceConfig{
			Jobs:    jobs,
			Collect: true,
			OnEvent: func(ev core.Event) {
				fmt.Fprintf(h, "ev %d %d %d %d %d\n", i, ev.Type, ev.Seq, ev.Slot, ev.Time.UnixNano())
			},
		}
		e.Spawn(fmt.Sprintf("driver%d", i), func(p *sim.Proc) {
			reps[i] = n.RunParallel(p, cfg, tasks)
			fmt.Fprintf(h, "done %d %d\n", i, p.Now())
		})
	}
	e.At(time.Millisecond, func() { launchQueue = n.Launch.QueueLen() })
	e.At(25*time.Millisecond, n.Fail)
	e.At(40*time.Millisecond, n.Recover)
	end := e.Run()
	for i, rep := range reps {
		writeReport(h, i, rep)
	}
	fmt.Fprintf(h, "end %d events %d live %d\n", end, e.EventsScheduled(), e.LiveProcs())
	return hex.EncodeToString(h.Sum(nil)), reps, launchQueue
}

func writeReport(h hash.Hash, i int, rep *Report) {
	fmt.Fprintf(h, "rep %d %d %d %d %d %d %d\n", i, rep.Launched, rep.Succeeded,
		rep.Failed, rep.FirstStart, rep.LastEnd, rep.DispatchBusy)
	for _, r := range rep.Results {
		fmt.Fprintf(h, "res %d %d %d %d %d %v\n", i, r.Seq, r.Slot, r.Start, r.End, r.Err)
	}
}

// TestInstanceMixGolden locks the contended multi-instance run to the
// digest captured before the dispatcher became a callback chain.
func TestInstanceMixGolden(t *testing.T) {
	got, reps, launchQueue := digestInstanceMix()
	if got != goldenInstanceMix {
		t.Errorf("instance mix digest changed:\n got  %s\n want %s", got, goldenInstanceMix)
	}
	if launchQueue == 0 {
		t.Error("no dispatcher was queued on Launch at 1ms")
	}
	// The scenario must bite on every path: the crash kills flow tasks
	// (Seq 1, 4, ...) and spawned tasks alike, and some tasks still
	// succeed on each path.
	var downFlow, downProc, okFlow, okProc int
	for _, rep := range reps {
		for _, r := range rep.Results {
			flow := r.Seq%3 == 1
			switch {
			case errors.Is(r.Err, ErrNodeDown) && flow:
				downFlow++
			case errors.Is(r.Err, ErrNodeDown):
				downProc++
			case r.Err == nil && flow:
				okFlow++
			case r.Err == nil:
				okProc++
			}
		}
	}
	if downFlow == 0 || downProc == 0 || okFlow == 0 || okProc == 0 {
		t.Errorf("scenario did not engage: node-down flow %d, proc %d; ok flow %d, proc %d",
			downFlow, downProc, okFlow, okProc)
	}
}
