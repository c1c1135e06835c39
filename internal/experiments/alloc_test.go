package experiments

import (
	"runtime"
	"testing"
)

// fig1Footprint builds and runs a Fig 1 point at nodes and reports the
// heap allocations and allocated bytes per task, build included.
func fig1Footprint(t *testing.T, nodes int) (mallocs, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	row := Fig1Point(DefaultOptions(), nodes)
	runtime.ReadMemStats(&after)
	if row.Tasks != nodes*fig1TasksPerNode {
		t.Fatalf("task count = %d, want %d", row.Tasks, nodes*fig1TasksPerNode)
	}
	n := float64(row.Tasks)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestFig1MallocsPerTask pins the model layer's allocation budget on a
// Fig 1 point: building 900 nodes and running their 115,200 tasks must
// make at most one heap allocation per task. Per-task closures and
// per-task dispatcher state would each cost one or more.
func TestFig1MallocsPerTask(t *testing.T) {
	perTask, _ := fig1Footprint(t, 900)
	t.Logf("%.3f mallocs per task", perTask)
	if perTask > 1.0 {
		t.Errorf("%.3f mallocs per task, want <= 1.0", perTask)
	}
}

// TestFig1BytesPerTask pins the bytes allocated per task on the same
// Fig 1 point, build included: about 219 B with one task program per
// instance and pooled run records, against 259 B when every task wrote
// its own step program into a pooled 16-step array. The largest share
// left is the model's own per-node state (task lists, drawn durations,
// completion samples).
func TestFig1BytesPerTask(t *testing.T) {
	_, perTask := fig1Footprint(t, 900)
	t.Logf("%.1f bytes allocated per task", perTask)
	if perTask > 240 {
		t.Errorf("%.1f bytes allocated per task, want <= 240", perTask)
	}
}
