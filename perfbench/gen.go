package main

import (
	"io"
	"strconv"
	"time"
)

// splitmix64 is a counter-based generator: record i of a seed is a pure
// function of (seed, i), so a verifier recomputes any record without
// replaying the stream, and the same seed always gives the same inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// appendRecord appends the two columns of record seq (1-based) — a
// node hostname and a timestamp, the two values Fig 1's task prints —
// separated by sep. Every record has the same length, so inputs of two
// seeds cost the same to process.
func appendRecord(dst []byte, seed uint64, seq int64, sep byte) []byte {
	h := splitmix64(seed ^ uint64(seq)*0x2545f4914f6cdd1d)
	dst = append(dst, "frontier"...)
	dst = appendPadded(dst, h%100000, 5)
	dst = append(dst, sep)
	// Seconds within a year of the paper's runs, always 10 digits.
	return strconv.AppendUint(dst, 1_700_000_000+(h>>20)%31_536_000, 10)
}

// appendPadded appends v in decimal, zero-padded to width digits.
func appendPadded(dst []byte, v uint64, width int) []byte {
	var buf [20]byte
	s := strconv.AppendUint(buf[:0], v, 10)
	for i := len(s); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// recordReader is the workload's input file: line i is record i of the
// seed, columns separated by a space, for i in 1..limit. It also ends
// at the first Read after the deadline, a guard that bounds the run on
// a host far slower than the one limit was sized for.
type recordReader struct {
	seed     uint64
	next     int64
	limit    int64
	deadline time.Time
	buf      []byte
	off      int
}

func (r *recordReader) Read(p []byte) (int, error) {
	if r.off == len(r.buf) {
		if r.next >= r.limit || time.Now().After(r.deadline) {
			return 0, io.EOF
		}
		r.buf, r.off = r.buf[:0], 0
		for len(r.buf) < 4096 && r.next < r.limit {
			r.next++
			r.buf = appendRecord(r.buf, r.seed, r.next, ' ')
			r.buf = append(r.buf, '\n')
		}
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}
