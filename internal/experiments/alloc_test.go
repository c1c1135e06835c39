package experiments

import (
	"runtime"
	"testing"
)

// TestFig1MallocsPerTask pins the model layer's allocation budget on a
// Fig 1 point: building 900 nodes and running their 115,200 tasks must
// make at most one heap allocation per task. Per-task closures and
// per-task dispatcher state would each cost one or more.
func TestFig1MallocsPerTask(t *testing.T) {
	const nodes = 900
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	row := Fig1Point(DefaultOptions(), nodes)
	runtime.ReadMemStats(&after)
	perTask := float64(after.Mallocs-before.Mallocs) / float64(row.Tasks)
	t.Logf("%d tasks: %.3f mallocs per task", row.Tasks, perTask)
	if row.Tasks != nodes*fig1TasksPerNode {
		t.Fatalf("task count = %d, want %d", row.Tasks, nodes*fig1TasksPerNode)
	}
	if perTask > 1.0 {
		t.Errorf("%.3f mallocs per task, want <= 1.0", perTask)
	}
}
