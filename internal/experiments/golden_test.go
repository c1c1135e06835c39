package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// Golden digests of seeded experiment output. They pin the determinism
// contract across kernel changes: the value of every Fig 1 / Fig 3 row
// is a pure function of the seed, so any event reordering introduced by
// a performance rewrite shows up here as a digest mismatch before it
// can silently shift calibrated results.
//
// goldenFig3 dates from the pre-rewrite (container/heap +
// goroutine-per-task) kernel and has survived every rewrite since.
// goldenFig1Quick was re-captured when fig1 moved onto the sharded DES:
// the model's streams changed from shared draw sequences to per-node
// substreams (a necessity for shard-count independence), which is a
// model change, not an ordering artifact. The sharded digest matrix in
// sharded_test.go proves the new value is identical at every shard
// count and GOMAXPROCS.
//
// goldenStraggler pins the contended-slot (Jobs = tasks/2) and
// Fail/Recover paths of the dispatcher, which the Fig 1 and Fig 3
// points never exercise; TestStragglerShardInvariant holds every shard
// count to the same value.
const (
	goldenFig1Quick = "2a906e0ea6fcc8a84ac4c36f631c257ef3390aa99eb632adac55be11a7952d4b"
	goldenFig3      = "1c6c6da503bb7a7cfa27af5d7c269e380dc3bfd09315eef0a14a8d3f32a43ce3"
	goldenStraggler = "5c1fb67c8a42c5170b4b3bbdd57e4bee06483408ca927f958ee874255d64c6e4"
)

func digestFig1(opts Options) string {
	rows := Fig1WeakScaling(opts)
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%d %d %.6f %.6f %.6f %.6f %.6f\n", r.Nodes, r.Tasks, r.P25, r.Median, r.P75, r.P90, r.Max)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestFig3(opts Options) string {
	h := sha256.New()
	for _, inst := range []int{1, 2, 4, 8} {
		r := launchRateRun(opts.Seed+uint64(inst), inst, 16, 400, nil)
		fmt.Fprintf(h, "%d %d %d %.9f %.9f %d\n", r.Instances, r.Jobs, r.Tasks, r.RateProcsPerSec, r.MinTaskMS, r.Failures)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests locks seeded results to the digests captured before
// the kernel rewrite (value-heap events, pooled processes, flow tasks):
// same seed, byte-identical rows.
func TestGoldenDigests(t *testing.T) {
	if got := digestFig1(Options{Seed: 2024, Quick: true}); got != goldenFig1Quick {
		t.Errorf("fig1 quick digest changed:\n got  %s\n want %s", got, goldenFig1Quick)
	}
	if got := digestFig3(Options{Seed: 2024}); got != goldenFig3 {
		t.Errorf("fig3 digest changed:\n got  %s\n want %s", got, goldenFig3)
	}
	if got := digestStraggler(Options{Seed: 2024}); got != goldenStraggler {
		t.Errorf("straggler digest changed:\n got  %s\n want %s", got, goldenStraggler)
	}
}

// TestSweepParallelBitIdentical verifies that running sweep points on a
// worker pool is purely a wall-clock lever: every point runs on its own
// engine seeded only by (Seed, point), so the rows — and therefore the
// digest — cannot depend on the worker count.
func TestSweepParallelBitIdentical(t *testing.T) {
	seq := digestFig1(Options{Seed: 2024, Quick: true, Workers: 1})
	par := digestFig1(Options{Seed: 2024, Quick: true, Workers: 4})
	if seq != par {
		t.Fatalf("parallel sweep changed results:\n sequential %s\n workers=4  %s", seq, par)
	}
	if seq != goldenFig1Quick {
		t.Fatalf("sequential sweep digest %s != golden %s", seq, goldenFig1Quick)
	}
}
