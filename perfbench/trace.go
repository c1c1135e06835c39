package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed interval around a call into a layer, recorded by
// the benchmark from outside the layer.
type Span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch, on the
	// monotonic clock.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a
	// root.
	Parent int32 `json:"parent"`
	// Job is the job's seq (0 for spans that belong to no one job).
	Job int64 `json:"job"`
}

// tracer keeps spans in memory until the run ends. add is not safe for
// concurrent use: every workload materializes its spans on a single
// goroutine (the engine collector or the watch reader) from per-job
// stamps the other goroutines leave in a stampRing.
type tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the current time in tracer nanoseconds. Safe from any
// goroutine.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and returns its index for use as a child's Parent.
func (t *tracer) add(name string, start, end int64, parent int32, job int64) int32 {
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Job: job})
	return int32(len(t.spans) - 1)
}

// selfTimes returns each span's duration minus the length of the union
// of its children's intervals, clipped to the span. Overlapping
// children (parallel sub-calls) are counted once, so self time is never
// negative.
func selfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[int32(i)] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes holds, for one span name, the sorted durations and self
// times of its spans in microseconds.
type layerTimes struct {
	dur, self []float64
}

// byName groups span durations and self times by span name.
func byName(spans []Span) map[string]*layerTimes {
	self := selfTimes(spans)
	out := map[string]*layerTimes{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.dur = append(lt.dur, float64(s.End-s.Start)/1e3)
		lt.self = append(lt.self, float64(self[i])/1e3)
	}
	for _, lt := range out {
		sort.Float64s(lt.dur)
		sort.Float64s(lt.self)
	}
	return out
}

// durP returns the p-th percentile duration (µs) of the named spans.
func durP(m map[string]*layerTimes, name string, p float64) float64 {
	if lt := m[name]; lt != nil {
		return percentile(lt.dur, p)
	}
	return 0
}

// selfP returns the p-th percentile self time (µs) of the named spans.
func selfP(m map[string]*layerTimes, name string, p float64) float64 {
	if lt := m[name]; lt != nil {
		return percentile(lt.self, p)
	}
	return 0
}

// writeSpans writes the spans as JSON lines to path, once, at the end
// of a run.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// nStamps is the number of timestamps a stampRing keeps per job.
const nStamps = 6

// stampRing holds per-job timestamps that several goroutines write and
// one goroutine reads back to build spans. A job's slot is its seq
// modulo the ring size, which must exceed the number of jobs in flight
// at once; the slot also stores the seq, so a reader detects a slot
// reused before it was read instead of mixing two jobs' times.
type stampRing struct {
	slots []stampSlot
	mask  int64
}

type stampSlot struct {
	seq atomic.Int64
	t   [nStamps]atomic.Int64
}

func newStampRing(size int) *stampRing {
	return &stampRing{slots: make([]stampSlot, size), mask: int64(size - 1)}
}

// claim resets seq's slot; the first stamp of a job calls it.
func (r *stampRing) claim(seq int64) {
	s := &r.slots[seq&r.mask]
	for i := range s.t {
		s.t[i].Store(0)
	}
	s.seq.Store(seq)
}

func (r *stampRing) set(seq int64, k int, ns int64) { r.slots[seq&r.mask].t[k].Store(ns) }

// get returns seq's stamps, false when the slot now belongs to another
// job.
func (r *stampRing) get(seq int64) (out [nStamps]int64, ok bool) {
	s := &r.slots[seq&r.mask]
	for i := range s.t {
		out[i] = s.t[i].Load()
	}
	return out, s.seq.Load() == seq
}
