package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// rtCounters is a snapshot of the Go runtime's cumulative allocation
// and GC counters.
type rtCounters struct {
	mallocs, allocBytes, gcs uint64
}

var rtCounterNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRT() rtCounters {
	s := make([]metrics.Sample, len(rtCounterNames))
	for i, n := range rtCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.mallocs - b.mallocs, a.allocBytes - b.allocBytes, a.gcs - b.gcs}
}

// phaseSampler watches a timed phase from a goroutine of its own: every
// 5 ms it records the peak live heap (the heap the last GC cycle marked
// reachable) and, when given a tracer, the process's CPU time.
type phaseSampler struct {
	tr         *tracer
	stop, done chan struct{}
	peak       uint64
	cpu        []cpuSample
}

// cpuSample is the process's cumulative CPU time (cpuNS) at tracer time
// t.
type cpuSample struct {
	t, cpu int64
}

func startSampler(tr *tracer) *phaseSampler {
	p := &phaseSampler{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			p.peak = max(p.peak, s[0].Value.Uint64())
			if p.tr != nil {
				p.cpu = append(p.cpu, cpuSample{p.tr.now(), cpuNS()})
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stopMB ends sampling and returns the peak live heap in MB (10^6
// bytes).
func (p *phaseSampler) stopMB() float64 {
	close(p.stop)
	<-p.done
	return float64(p.peak) / 1e6
}

// liveHeapMB collects the heap and returns what is still reachable, in
// MB. Unlike a peak sampled while the program runs, it does not depend
// on when the GC's cycles happened to end.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// cpuAt returns the process's CPU time at tracer time t, interpolated
// between the samples around it and clamped to the first and last.
// Call it after stopMB.
func (p *phaseSampler) cpuAt(t int64) float64 {
	n := len(p.cpu)
	if n == 0 {
		return 0
	}
	j := sort.Search(n, func(k int) bool { return p.cpu[k].t >= t })
	if j == 0 {
		return float64(p.cpu[0].cpu)
	}
	if j == n {
		return float64(p.cpu[n-1].cpu)
	}
	a, b := p.cpu[j-1], p.cpu[j]
	return float64(a.cpu) + float64(b.cpu-a.cpu)*float64(t-a.t)/float64(b.t-a.t)
}
