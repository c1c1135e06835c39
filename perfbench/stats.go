package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for no samples. Nearest-rank always returns a
// sample that was measured, never an interpolation between two.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (nearest-rank p50), 0 for none.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// ratio is a/b, 0 when b is 0, so a counter over an empty phase reads 0
// instead of NaN (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows splits a timed phase into fixed-width windows and keeps each
// window's completions, latency samples and the process CPU time used
// in it. Figures are medians over the windows, so a burst of a few
// seconds in which the host ran slower moves them little.
type windows struct {
	start, width int64 // tracer ns
	counts       []int
	lat          [][]float64
	cpu          []float64 // ns
}

// newWindows covers [start, start+total) with windows of about width
// each, at least one.
func newWindows(start int64, width, total time.Duration) *windows {
	n := max(1, int(total/width))
	return &windows{start: start, width: int64(total) / int64(n), counts: make([]int, n),
		lat: make([][]float64, n), cpu: make([]float64, n)}
}

// measureCPU records each window's CPU time from the sampler.
func (w *windows) measureCPU(p *phaseSampler) {
	for i := range w.cpu {
		a := w.start + int64(i)*w.width
		w.cpu[i] = p.cpuAt(a+w.width) - p.cpuAt(a)
	}
}

// add records one completion at t (tracer ns) with latency latUS;
// completions after the last window are ignored.
func (w *windows) add(t int64, latUS float64) {
	i := int((t - w.start) / w.width)
	if i < 0 || i >= len(w.counts) {
		return
	}
	w.counts[i]++
	w.lat[i] = append(w.lat[i], latUS)
}

// cpuPerJob is the median over windows with a completion of the CPU
// time per completion, in µs.
func (w *windows) cpuPerJob() float64 {
	var xs []float64
	for i, c := range w.counts {
		if c > 0 {
			xs = append(xs, w.cpu[i]/1e3/float64(c))
		}
	}
	return median(xs)
}

// rate is the median over windows of completions per second.
func (w *windows) rate() float64 {
	var rates []float64
	for _, c := range w.counts {
		rates = append(rates, float64(c)/(float64(w.width)/1e9))
	}
	return median(rates)
}

// latency is the median over windows of each window's p-th percentile
// latency; windows with no completion are skipped.
func (w *windows) latency(p float64) float64 {
	var ps []float64
	for _, l := range w.lat {
		if len(l) > 0 {
			ps = append(ps, percentile(sortedCopy(l), p))
		}
	}
	return median(ps)
}
