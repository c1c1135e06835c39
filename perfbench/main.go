// Command perfbench is the repository's benchmark. It runs one named
// workload against the launcher's layers through their public
// functions, checks the outputs, and prints one JSON result line:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1.
//
//	bash perfbench/run.sh --workload exec-local --seed 1 --seconds 15 --trace 0
//
// METRICS.md defines every workload and metric and states which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. The two tables below must match
// BENCHMARK.json (checked by TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"cpu_us_per_job", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"wall.jobs_per_s", "1/s", "higher"},
	{"wall.latency_p50_us", "us", "lower"},
	{"wall.latency_p90_us", "us", "lower"},
	{"args.next_ns", "ns", "lower"},
	{"tmpl.render_ns", "ns", "lower"},
	{"core.slot_self_us", "us", "lower"},
	{"core.queue_wait_us_p50", "us", "lower"},
	{"core.collect_us_p50", "us", "lower"},
	{"core.exec_us_p50", "us", "lower"},
	{"core.exec_us_p90", "us", "lower"},
	{"runtime.mallocs_per_job", "count", "lower"},
	{"runtime.gc_count", "count", "lower"},
	{"dist.pool_run_us_p50", "us", "lower"},
	{"dist.worker_run_us_p50", "us", "lower"},
	{"dist.wire_us_p50", "us", "lower"},
	{"dist.jobs_per_frame", "count", "higher"},
	{"dist.bytes_per_job", "B", "lower"},
	{"wal.appends_per_job", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.fsync_us_p50", "us", "lower"},
	{"wal.fsync_us_max", "us", "lower"},
	{"wal.replay_s", "s", "lower"},
	{"mq.open_s", "s", "lower"},
	{"jobd.submit_rpc_us_p50", "us", "lower"},
	{"jobd.submit_rpc_us_p90", "us", "lower"},
	{"jobd.ack_to_run_us_p50", "us", "lower"},
	{"jobd.run_to_terminal_us_p50", "us", "lower"},
	{"jobd.watch_missed", "count", "lower"},
	{"bench.gen_late_ms_max", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"runtime.mallocs_per_task", "count", "lower"},
	{"runtime.alloc_bytes_per_task", "B", "lower"},
	{"sim.epochs", "count", "lower"},
	{"sim.cross_posts", "count", "lower"},
	{"sim.barrier_stall_share", "share", "lower"},
	{"sim.kernel_self_share", "share", "lower"},
	{"sim.flow_self_share", "share", "lower"},
	{"cluster.self_share", "share", "lower"},
	{"runtime.gc_self_share", "share", "lower"},
	{"runtime.sched_self_share", "share", "lower"},
	{"trace.overhead_cpu_share", "share", "lower"},
	{"trace.overhead_latency_p50_us", "us", "lower"},
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int
	// e2e holds the end-to-end metrics of the pass; wall its wall-clock
	// figures, keyed by the per-layer metric names; layer the other
	// per-layer metrics, filled only by a traced pass.
	e2e, wall, layer map[string]float64
	spans            []Span
	// info is printed on the line before the result, for the record.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, wall: map[string]float64{}, layer: map[string]float64{},
		info: map[string]any{}}
}

// runCtx is what every pass of a workload shares.
type runCtx struct {
	seed    uint64
	nproc   int
	workDir string
	// history caches serve-open's generated state directory, built once
	// per invocation and copied by each pass.
	history        string
	historyRecords int
}

// workloads maps each workload name to one timed pass: set up, measure
// for secs, verify, tear down.
var workloads = map[string]func(rc *runCtx, traced bool, secs time.Duration) (*outcome, error){
	"exec-local":    func(rc *runCtx, tr bool, s time.Duration) (*outcome, error) { return runBatch(rc, execLocal, tr, s) },
	"dispatch-dist": func(rc *runCtx, tr bool, s time.Duration) (*outcome, error) { return runBatch(rc, dispatchDist, tr, s) },
	"serve-open":    runServe,
	"fig1-serial":   func(rc *runCtx, tr bool, s time.Duration) (*outcome, error) { return runFig1(rc, false, tr, s) },
	"fig1-sharded":  func(rc *runCtx, tr bool, s time.Duration) (*outcome, error) { return runFig1(rc, true, tr, s) },
}

// onOneP names the workloads that run with GOMAXPROCS 1; the others
// get one P per CPU. Both run one process's Go code and nothing that
// needs a second CPU: fig1-serial's kernel is one goroutine, so a
// second P ran only the GC's idle mark workers, adding 20% CPU time that
// varied between runs and no speed; dispatch-dist's engine, pool and
// worker hand each job between goroutines, and with two Ps each hand-off
// could wake the other vCPU, whose CPU cost rose with the host's load
// (21-23 µs a job against 17.0-17.4 µs on one P, which was also faster).
// exec-local's children and fig1-sharded's shards need the CPUs, and
// serve-open's spread was already small with them.
var onOneP = map[string]bool{"dispatch-dist": true, "fig1-serial": true}

// buildDir is where the benchmark keeps everything it writes, inside
// the checkout it runs from.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run := workloads[*name]
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds N --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := mainErr(*name, run, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, run func(*runCtx, bool, time.Duration) (*outcome, error), seed uint64, secs time.Duration, traced bool) error {
	work := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	rc := &runCtx{seed: seed, nproc: runtime.NumCPU(), workDir: work}
	if onOneP[name] {
		runtime.GOMAXPROCS(1)
	}

	host := hostFingerprint()
	steal0, total0 := cpuSteal()
	var metrics map[string]float64
	var attempted, failed int
	var info map[string]any
	tracePath := ""
	if !traced {
		o, err := run(rc, false, secs)
		if err != nil {
			return err
		}
		metrics, attempted, failed, info = o.e2e, o.attempted, o.failed, o.info
		for k, v := range o.wall {
			info[k] = v
		}
	} else {
		// The wall-clock figures come from an untraced pass of half the
		// length, run first; the tracing overhead is the traced pass's
		// numbers against it.
		plain, err := run(rc, false, secs/2)
		if err != nil {
			return err
		}
		tr, err := run(rc, true, secs/2)
		if err != nil {
			return err
		}
		metrics, info = tr.layer, tr.info
		for k, v := range plain.wall {
			metrics[k] = v
		}
		metrics["trace.overhead_cpu_share"] = ratio(tr.e2e["cpu_us_per_job"], plain.e2e["cpu_us_per_job"]) - 1
		metrics["trace.overhead_latency_p50_us"] = tr.wall["wall.latency_p50_us"] - plain.wall["wall.latency_p50_us"]
		attempted = plain.attempted + tr.attempted
		failed = plain.failed + tr.failed
		if len(tr.spans) > 0 {
			dir := filepath.Join(buildDir, "traces")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			tracePath = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
			if err := writeSpans(tracePath, tr.spans); err != nil {
				return err
			}
		}
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			// A layer this workload does not run: it did no work.
			v = 0
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	info["workload"], info["seed"], info["seconds"], info["trace"] = name, seed, secs.Seconds(), traced
	info["host"], info["spans_file"] = host, tracePath
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// CPU time the hypervisor gave to other guests during the run:
		// the wall-clock figures grow with it, the CPU-time ones do not.
		info["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuSteal returns the steal and total jiffies of all CPUs from
// /proc/stat, zeros where it is unreadable.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "kernel": kernel, "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}
