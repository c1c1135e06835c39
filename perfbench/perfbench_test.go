package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {0, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestWindowsMedianIgnoresOneBadWindow(t *testing.T) {
	w := newWindows(0, time.Second, 3*time.Second)
	for win := int64(0); win < 3; win++ {
		for k := int64(0); k < 10; k++ {
			lat := 100.0
			if win == 1 {
				lat = 10_000 // a stall hits the middle window only
			}
			w.add(win*int64(time.Second)+k, lat)
		}
	}
	w.add(5*int64(time.Second), 1) // after the phase: ignored
	if got := w.latency(90); got != 100 {
		t.Errorf("median window p90 = %v, want 100", got)
	}
	if got := w.rate(); got != 10 {
		t.Errorf("median window rate = %v, want 10/s", got)
	}
}

// TestWindowsCPUPerJob checks the per-window CPU time read from the
// sampler (interpolated between samples) and its median per job.
func TestWindowsCPUPerJob(t *testing.T) {
	sec := int64(time.Second)
	w := newWindows(0, time.Second, 4*time.Second)
	p := &phaseSampler{}
	// Samples every half second up to 3.5 s: CPU time grows 10 ms a
	// second, 40 ms in the third (a slow burst); the last window's end
	// lies past the last sample, so it reads only half a second.
	for i, c := range []int64{0, 5, 10, 15, 20, 40, 60, 65} {
		p.cpu = append(p.cpu, cpuSample{t: int64(i) * sec / 2, cpu: c * 1e6})
	}
	for win := int64(0); win < 4; win++ {
		for k := int64(0); k < 10; k++ {
			w.add(win*sec+k, 100)
		}
	}
	w.measureCPU(p)
	want := []float64{10e6, 10e6, 40e6, 5e6} // the last sample is at 3.5 s
	for i := range want {
		if w.cpu[i] != want[i] {
			t.Fatalf("window CPU = %v, want %v", w.cpu, want)
		}
	}
	if got := w.cpuPerJob(); got != 1000 {
		t.Errorf("median CPU per job = %v µs, want 1000", got)
	}
	if got := p.cpuAt(sec / 4); got != 2.5e6 {
		t.Errorf("cpuAt(0.25 s) = %v, want 2.5e6 (interpolated)", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "d", Start: 35, End: 45, Parent: 1},  // grandchild
	}
	got := selfTimes(spans)
	// root is covered by [10,60) and [90,100): 60 of 100.
	// a is covered by d clipped to [35,40): 5 of 30.
	want := []int64{40, 25, 30, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	m := byName(spans)
	if d := durP(m, "a", 50); d != 0.03 {
		t.Errorf("durP(a) = %v µs, want 0.03", d)
	}
	if s := selfP(m, "root", 50); s != 0.04 {
		t.Errorf("selfP(root) = %v µs, want 0.04", s)
	}
}

func TestStampRingDetectsReuse(t *testing.T) {
	r := newStampRing(4)
	r.claim(3)
	r.set(3, 1, 42)
	if st, ok := r.get(3); !ok || st[1] != 42 {
		t.Fatalf("get(3) = %v, %v; want stamp 42", st, ok)
	}
	r.claim(7) // same slot as 3
	if _, ok := r.get(3); ok {
		t.Error("get(3) after seq 7 reused its slot: ok = true, want false")
	}
}

// readRecords returns the first n lines a recordReader of seed yields.
func readRecords(seed uint64, n int) []byte {
	r := &recordReader{seed: seed, limit: int64(n), deadline: time.Now().Add(time.Hour)}
	data, _ := io.ReadAll(r)
	return data
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := readRecords(7, 500), readRecords(7, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated two different input streams")
	}
	if bytes.Equal(a, readRecords(8, 500)) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
	// Line i is record i, so a verifier can recompute any job's input.
	for i, line := range strings.Split(strings.TrimSuffix(string(a), "\n"), "\n") {
		if want := string(appendRecord(nil, 7, int64(i+1), ' ')); line != want {
			t.Fatalf("line %d = %q, want record %q", i+1, line, want)
		}
		if len(line) != len("frontier00000 1700000000") {
			t.Fatalf("line %d = %q: records must all have one length", i+1, line)
		}
	}
	if cmd := string(appendCommand(nil, 7, 3)); cmd != "echo "+string(appendRecord(nil, 7, 3, ' ')) {
		t.Errorf("appendCommand = %q", cmd)
	}
}

func TestRecordReaderStopsAtLimitOrDeadline(t *testing.T) {
	if got := strings.Count(string(readRecords(3, 1000)), "\n"); got != 1000 {
		t.Errorf("limit 1000 gave %d records", got)
	}
	r := &recordReader{seed: 1, limit: 10, deadline: time.Now().Add(-time.Second)}
	if n, err := r.Read(make([]byte, 10)); n != 0 || err != io.EOF {
		t.Fatalf("Read after deadline = %d, %v; want 0, EOF", n, err)
	}
}

// TestOpenLoopCountsCoordinatedOmission runs the serve-open generator
// on a fake clock with one 50 ms stall in a submit. The jobs due during
// the stall are sent late, and latency from the due time charges each
// of them the wait.
func TestOpenLoopCountsCoordinatedOmission(t *testing.T) {
	const n = 1000
	interval := int64(time.Millisecond)
	s := &serveRun{n: n, due: make([]int64, n), sent: make([]int64, n),
		acked: make([]int64, n), finished: make([]int64, n)}
	clock := int64(0)
	now := func() int64 { return clock }
	sleep := func(d int64) { clock += d }
	errs := s.openLoop(0, interval, now, sleep, func(i int) bool {
		clock += int64(100 * time.Microsecond)
		if i == 100 {
			clock += int64(50 * time.Millisecond) // the stall
		}
		s.finished[i] = clock // completion at the ack
		return i != 7
	})
	if errs != 1 {
		t.Errorf("failed submits = %d, want 1", errs)
	}
	for i := 0; i < n; i++ {
		if s.due[i] != int64(i)*interval {
			t.Fatalf("job %d due at %d: the schedule must not shift after a stall", i, s.due[i])
		}
	}
	if s.sent[120] <= s.due[120] {
		t.Errorf("job 120 was due during the stall but sent on time")
	}
	win, missed, last := s.latencies(0, time.Second)
	if missed != 0 || last != s.finished[n-1] {
		t.Errorf("missed = %d, last = %d", missed, last)
	}
	// ~50 of 1000 jobs were due during the stall: beyond p90 but not p99.
	if p := win.latency(99); p < 1000 {
		t.Errorf("p99 = %v µs, want the stall (>= 1 ms) to show", p)
	}
	if p := win.latency(50); p > 200 {
		t.Errorf("p50 = %v µs, want the unstalled service time", p)
	}
	// Measured from the send instead, the same run hides the stall
	// from every job but the stalled one.
	var fromSend []float64
	for i := 0; i < n; i++ {
		fromSend = append(fromSend, float64(s.finished[i]-s.sent[i])/1e3)
	}
	if p := percentile(sortedCopy(fromSend), 99); p > 200 {
		t.Errorf("p99 from send = %v µs: the omission this rule exists to avoid did not happen", p)
	}
}

func TestLeafFileTimesDecodesCPUProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += spin(1000)
	}
	pprof.StopCPUProfile()
	files, total, err := leafFileTimes(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Skipf("profile has no samples (x=%d)", x)
	}
	var sum int64
	found := false
	for f, ns := range files {
		sum += ns
		if strings.HasSuffix(f, "perfbench_test.go") {
			found = true
		}
	}
	if sum != total {
		t.Errorf("file times sum to %d, total %d", sum, total)
	}
	if !found {
		t.Errorf("no CPU time attributed to the spinning test file; files: %v", files)
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

func TestLayerOfFile(t *testing.T) {
	for file, want := range map[string]string{
		"/src/repo/internal/sim/sim.go":          "sim.kernel",
		"/src/repo/internal/sim/shard.go":        "sim.kernel",
		"/src/repo/internal/sim/flow.go":         "sim.flow",
		"/src/repo/internal/cluster/instance.go": "cluster",
		"/usr/local/go/src/runtime/mgcmark.go":   "runtime.gc",
		"/usr/local/go/src/runtime/proc.go":      "runtime.sched",
		"/usr/local/go/src/runtime/malloc.go":    "",
		"/src/repo/internal/core/engine.go":      "",
	} {
		if got := layerOfFile(file); got != want {
			t.Errorf("layerOfFile(%q) = %q, want %q", file, got, want)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metrics this program
// prints and the ones BENCHMARK.json declares the same.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}
