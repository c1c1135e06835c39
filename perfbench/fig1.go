package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

const (
	// defaultSeed is the experiments package's default seed, at which
	// the full-scale row must equal fig1Reference.
	defaultSeed = 2024
	// fig1Nodes is the paper's largest weak-scaling point: 9,000 nodes
	// x 128 tasks = 1.152M simulated tasks.
	fig1Nodes = 9000
	// fig1QuickNodes is the warm-up point. It also runs in the other
	// kernel mode, a cross-check of the two modes at every seed that
	// costs a tenth of one at full scale.
	fig1QuickNodes = 900
	// fig1MinReps is the fewest timed reps a pass makes, so that
	// setup_s, the model build, is a median of three: one build's CPU
	// time depends on where the GC's cycles fell in it.
	fig1MinReps = 3
)

// fig1Reference is experiments.Fig1Point at the default seed and 9,000
// nodes, as committed in EXPERIMENTS.md (there rounded to 0.1 s).
var fig1Reference = experiments.Fig1Row{Nodes: 9000, Tasks: 1152000,
	P25: 14.635171134, Median: 19.1019529215, P75: 23.603821263249998,
	P90: 27.072286915099998, Max: 546.829431524}

// fig1Rep is what one timed Fig1Point call measured.
type fig1Rep struct {
	row           experiments.Fig1Row
	wall, build   time.Duration
	cpu, cpuBuild int64 // ns
	peakMB        float64
	events        uint64
	epochs        uint64
	posts         uint64
	stallNS       int64
	shards        int
	mallocs, mem  uint64
}

func fig1Point(opts experiments.Options) fig1Rep {
	var r fig1Rep
	var se *sim.ShardedEngine
	// The model is built on this goroutine, and OnSharded is called on
	// it when the build is done: locked to its thread until then, the
	// thread's CPU time is the build's own, without the GC's background
	// workers, which run on other threads whenever a P is idle.
	runtime.LockOSThread()
	start, cpu0, build0 := time.Now(), cpuNS(), threadCPUNS()
	opts.OnSharded = func(_ string, s *sim.ShardedEngine) {
		r.build, r.cpuBuild = time.Since(start), threadCPUNS()-build0
		runtime.UnlockOSThread()
		se = s
	}
	rt0 := readRT()
	heap := startSampler(nil)
	r.row = experiments.Fig1Point(opts, fig1Nodes)
	r.wall, r.cpu = time.Since(start), cpuNS()-cpu0
	r.peakMB = heap.stopMB()
	rt := readRT().sub(rt0)
	r.mallocs, r.mem = rt.mallocs, rt.allocBytes
	r.shards = se.NumShards()
	for _, st := range se.Snapshot() {
		r.events += st.Events
		r.epochs = st.Epochs
		r.posts += st.Posted
		r.stallNS += st.StallNs
	}
	return r
}

// runFig1 is one pass of fig1-serial (Shards: 0, the serial oracle) or
// fig1-sharded (Shards: nproc, the lookahead coordinator): timed reps of
// the 9,000-node point for about secs, never fewer than fig1MinReps.
func runFig1(rc *runCtx, sharded, traced bool, secs time.Duration) (*outcome, error) {
	opts := experiments.Options{Seed: rc.seed}
	other := experiments.Options{Seed: rc.seed, Shards: rc.nproc}
	if sharded {
		opts, other = other, opts
	}
	o := newOutcome()

	// Warm-up, and the quick cross-check of the two kernel modes.
	o.attempted += 2
	if experiments.Fig1Point(opts, fig1QuickNodes) != experiments.Fig1Point(other, fig1QuickNodes) {
		o.failed++
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var reps []fig1Rep
	start := time.Now()
	for len(reps) < fig1MinReps || time.Since(start)+reps[len(reps)-1].wall/2 < secs {
		// Every rep starts from a collected heap, as a fresh process
		// would, instead of inheriting the last rep's garbage.
		runtime.GC()
		reps = append(reps, fig1Point(opts))
	}
	if traced {
		pprof.StopCPUProfile()
	}

	// Correctness: every rep gives one row, and at the default seed it
	// is the reference row in both kernel modes.
	want := reps[0].row
	o.attempted += len(reps)
	for _, r := range reps {
		if r.row != want {
			o.failed++
		}
	}
	if rc.seed == defaultSeed && want != fig1Reference {
		o.failed++
	}
	o.info["fig1_row"] = want
	if want.Tasks != fig1Nodes*128 {
		return nil, fmt.Errorf("fig1 row has %d tasks, want %d", want.Tasks, fig1Nodes*128)
	}

	var walls, builds, cpus, cpuBuilds, peaks []float64
	var wallSum time.Duration
	for _, r := range reps {
		walls = append(walls, float64(r.wall.Microseconds()))
		builds = append(builds, r.build.Seconds())
		cpus = append(cpus, float64(r.cpu)/1e3/float64(want.Tasks))
		cpuBuilds = append(cpuBuilds, float64(r.cpuBuild)/1e9)
		peaks = append(peaks, r.peakMB)
		wallSum += r.wall
	}
	tasks := float64(want.Tasks * len(reps))
	o.e2e["cpu_us_per_job"] = median(cpus)
	o.e2e["setup_s"] = median(cpuBuilds)
	// A live-heap reading also counts what was allocated while the GC
	// was marking, so the smallest per-rep peak is nearest the working
	// set; in sharded mode one rep in three or four read ~10% higher.
	o.e2e["live_heap_mb"] = slices.Min(peaks)
	o.wall["wall.jobs_per_s"] = tasks / wallSum.Seconds()
	o.wall["wall.latency_p50_us"] = percentile(sortedCopy(walls), 50)
	o.wall["wall.latency_p90_us"] = percentile(sortedCopy(walls), 90)
	o.info["setup_wall_s"] = median(builds)
	if !traced {
		return o, nil
	}

	L := o.layer
	var runNS, stall, mallocs, mem float64
	for _, r := range reps {
		runNS += float64(r.wall - r.build)
		stall += float64(r.stallNS)
		mallocs += float64(r.mallocs)
		mem += float64(r.mem)
	}
	last := reps[len(reps)-1]
	L["sim.events"] = float64(last.events)
	L["sim.events_per_s"] = float64(last.events) * float64(len(reps)) / (runNS / 1e9)
	L["runtime.mallocs_per_task"] = mallocs / tasks
	L["runtime.alloc_bytes_per_task"] = mem / tasks
	L["sim.epochs"] = float64(last.epochs)
	L["sim.cross_posts"] = float64(last.posts)
	if last.shards > 0 {
		L["sim.barrier_stall_share"] = stall / (float64(last.shards) * runNS)
	}
	files, total, err := leafFileTimes(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for f, ns := range files {
		if l := layerOfFile(f); l != "" {
			shares[l] += float64(ns) / float64(total)
		}
	}
	L["sim.kernel_self_share"] = shares["sim.kernel"]
	L["sim.flow_self_share"] = shares["sim.flow"]
	L["cluster.self_share"] = shares["cluster"]
	L["runtime.gc_self_share"] = shares["runtime.gc"]
	L["runtime.sched_self_share"] = shares["runtime.sched"]
	return o, nil
}
