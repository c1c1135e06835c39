package cluster

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// instanceMallocs reports the heap allocations of building ntasks
// sleep tasks and running them as one flow-only instance at Jobs: 128.
// Each task sleeps long enough that all 128 slots fill up. A first
// instance on the same engine warms the engine's flow pool, so the
// count is what one more instance costs.
func instanceMallocs(ntasks int) (mallocs uint64, succeeded int) {
	e := sim.NewEngine(5)
	n := New(e, Frontier(), 1).Nodes[0]
	long := func(i int) time.Duration { return time.Second + time.Duration(i%7)*time.Millisecond }
	e.Spawn("driver", func(p *sim.Proc) {
		n.RunParallel(p, InstanceConfig{Jobs: 128}, SleepTasks(128, long))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := n.RunParallel(p, InstanceConfig{Jobs: 128}, SleepTasks(ntasks, long))
		runtime.ReadMemStats(&after)
		mallocs, succeeded = after.Mallocs-before.Mallocs, rep.Succeeded
	})
	e.Run()
	return mallocs, succeeded
}

// TestRunParallelAllocsFlatInTaskCount pins the dispatcher's allocation
// profile: task construction shares one payload, the instance's state is
// built once, and flow tasks reuse per-slot state and pooled flows. An
// 8x longer task list may cost only a small constant more heap objects,
// and the whole instance fewer than one per slot.
func TestRunParallelAllocsFlatInTaskCount(t *testing.T) {
	instanceMallocs(1024) // warm up lazily built runtime state
	short, okShort := instanceMallocs(1024)
	long, okLong := instanceMallocs(8192)
	if okShort != 1024 || okLong != 8192 {
		t.Fatalf("succeeded %d of 1,024 and %d of 8,192 tasks", okShort, okLong)
	}
	t.Logf("mallocs: 1,024 tasks %d, 8,192 tasks %d", short, long)
	if long > short+16 {
		t.Errorf("mallocs grow with task count: 1,024 tasks %d, 8,192 tasks %d (%.2f per extra task)",
			short, long, float64(long-short)/(8192-1024))
	}
	if short >= 128 {
		t.Errorf("%d mallocs for a 128-slot instance, want fewer than one per slot", short)
	}
}
