package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
)

// StragglerRow summarizes the straggler/preemption scenario: a
// population of nodes where a few dispatch tasks far slower than their
// peers and a few are preempted mid-run (spot reclamation, hardware
// drain) and later recovered.
type StragglerRow struct {
	Nodes, Tasks int
	// Stragglers dispatch with a 4-12x per-task launch cost;
	// Preempted nodes crash mid-run and recover after a downtime draw.
	Stragglers, Preempted int
	// Failed counts tasks lost to crashed nodes (ErrNodeDown).
	Failed int
	// Completion-time percentiles (s) over successful tasks.
	P50, P90, P99, Max float64
}

// stragglerRun builds the scenario on the sharded DES. Group 0 hosts
// the facility's reclaimer: it decides at build time — from its own
// streams, in node order — which nodes straggle and which get
// preempted, then delivers Fail/Recover into the victims' groups as
// cross-group posts carrying the declared StageLookahead latency. Like
// fig1Sim, the row is bit-identical at every Options.Shards value.
func stragglerRun(opts Options, nodes, tasksPerNode int) StragglerRow {
	seed := opts.Seed*0x9e3779b9 + uint64(nodes)
	ngroups := fig1NodeGroups
	if ngroups > nodes {
		ngroups = nodes
	}
	prof := cluster.Frontier()
	se := sim.NewSharded(seed, 1+ngroups, opts.Shards)
	se.SetLookahead(prof.StageLookahead)
	base := sim.NewRNG(seed)
	c := cluster.NewSharded(se, prof, nodes, base)
	if opts.OnSharded != nil {
		opts.OnSharded(fmt.Sprintf("straggler/%d", nodes), se)
	}

	_, ready := slurm.PlanReady(base.Split("slurm"), slurm.DefaultConfig(), nodes, 0)

	look := prof.StageLookahead
	ctl := se.Engine(0)
	spot := base.Split("straggler/preempt")
	slow := base.Split("straggler/slow")
	row := StragglerRow{Nodes: nodes, Tasks: nodes * tasksPerNode}

	type groupAgg struct {
		ends   metrics.Sample
		failed int
	}
	aggs := make([]groupAgg, 1+ngroups)
	for i, node := range c.Nodes {
		node := node
		g := node.Group
		agg := &aggs[g]

		// Straggler draw: a slow image cache, a degraded boot drive —
		// the node launches tasks at a multiple of the calibrated cost.
		dispatch := prof.DispatchCost
		if slow.Bernoulli(0.05) {
			row.Stragglers++
			dispatch = time.Duration(float64(dispatch) * slow.Uniform(4, 12))
		}
		// Preemption draw: the reclaimer posts a crash into the node's
		// group mid-run and a recovery after an exponential downtime.
		if spot.Bernoulli(0.03) {
			row.Preempted++
			tf := sim.Dur(spot.Uniform(10, 60))
			down := spot.DurExp(20 * time.Second)
			ctl.At(tf, func() { se.Post(0, g, look, node.Fail) })
			ctl.At(tf+down, func() { se.Post(0, g, look, node.Recover) })
		}

		payload := base.Substream("straggler/payload", uint64(i))
		node.Eng.SpawnAt(ready[i], node.Hostname(), func(np *sim.Proc) {
			durs := make([]time.Duration, tasksPerNode)
			sleep := sim.NewProgram()
			sleep.SleepSized(func(arg int64) time.Duration { return durs[cluster.SeqOf(arg)-1] })
			tasks := make([]cluster.Task, tasksPerNode)
			for t := range tasks {
				durs[t] = time.Duration(payload.LogNormal(2.3, 0.6) * float64(time.Second))
				tasks[t] = cluster.Task{FlowPayload: sleep}
			}
			node.RunParallel(np, cluster.InstanceConfig{
				Jobs:         tasksPerNode / 2,
				DispatchCost: dispatch,
				OnResult: func(r cluster.TaskResult) {
					if r.Err != nil {
						agg.failed++
						return
					}
					agg.ends.Add(r.End.Seconds())
				},
			}, tasks)
		})
	}
	se.Run()
	if n := se.LiveProcs(); n != 0 {
		panic(fmt.Sprintf("straggler: %d processes still live after run", n))
	}

	var ends metrics.Sample
	for gi := range aggs {
		row.Failed += aggs[gi].failed
		for _, v := range aggs[gi].ends.Values() {
			ends.Add(v)
		}
	}
	row.P50 = ends.Median()
	row.P90 = ends.Percentile(90)
	row.P99 = ends.Percentile(99)
	row.Max = ends.Max()
	return row
}

func stragglerTable(opts Options) *metrics.Table {
	nodes, tasksPer := 1200, 32
	if opts.Quick {
		nodes, tasksPer = 240, 16
	}
	r := stragglerRun(opts, nodes, tasksPer)
	t := metrics.NewTable("Stragglers and mid-run preemption (sharded DES)",
		"nodes", "tasks", "stragglers", "preempted", "failed", "p50_s", "p90_s", "p99_s", "max_s")
	t.AddRow(r.Nodes, r.Tasks, r.Stragglers, r.Preempted, r.Failed,
		fmt.Sprintf("%.1f", r.P50), fmt.Sprintf("%.1f", r.P90),
		fmt.Sprintf("%.1f", r.P99), fmt.Sprintf("%.1f", r.Max))
	t.AddNote("preemptions are Fail/Recover posts from the group-0 reclaimer; failed tasks observed ErrNodeDown")
	t.AddNote("straggler nodes dispatch at 4-12x the calibrated per-task cost, stretching the p99/max tail")
	return t
}

func init() {
	register(Experiment{
		ID:    "straggler",
		Paper: "Beyond the paper: straggler dispatch and mid-run preemption under the sharded kernel",
		Run:   stragglerTable,
	})
}
