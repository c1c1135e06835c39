package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The discrete-event simulator has no call boundary per task to put a
// span around, so a CPU profile of the traced fig1 reps is its trace:
// each sample's CPU time is attributed to the source file of its leaf
// frame. This file decodes the few fields of the pprof protobuf
// (profile.proto) that attribution needs; the standard library writes
// the format but has no reader.

// leafFileTimes returns the sampled CPU nanoseconds per leaf source
// file of a gzipped pprof CPU profile, and their total.
func leafFileTimes(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcFile = map[uint64]int64{}  // function id → filename string index
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			// CPU profiles carry [samples, cpu nanoseconds].
			s.loc, s.value = locs[0], int64(vals[len(vals)-1])
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveFn := false
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !haveFn {
						haveFn = true
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var file int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcFile[id] = file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("decoding CPU profile: %w", err)
	}
	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		file := "?"
		if idx := funcFile[locFunc[s.loc]]; idx >= 0 && idx < int64(len(strs)) {
			file = strs[idx]
		}
		out[file] += s.value
		total += s.value
	}
	return out, total, nil
}

// appendPacked appends a repeated scalar field that arrived either as
// one varint (v) or packed in a length-delimited run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField calls fn for every field of one protobuf message: varint
// fields with v set, length-delimited fields with b set (non-nil).
// Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// uvarint decodes a protobuf varint; n <= 0 on malformed input.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOfFile names the layer whose CPU self time a leaf source file
// counts toward, "" for none of the reported ones.
func layerOfFile(file string) string {
	file = strings.ReplaceAll(file, "\\", "/")
	base := path.Base(file)
	switch {
	case strings.Contains(file, "/internal/sim/"):
		if base == "flow.go" || base == "proc.go" {
			return "sim.flow"
		}
		return "sim.kernel"
	case strings.Contains(file, "/internal/cluster/"):
		return "cluster"
	case !strings.Contains(file, "/src/runtime/"):
		return ""
	case strings.HasPrefix(base, "mgc") || base == "mbitmap.go" || base == "mwbbuf.go" || base == "mspanset.go":
		return "runtime.gc"
	case base == "proc.go" || base == "chan.go" || base == "select.go" || base == "sema.go" ||
		base == "preempt.go" || base == "os_linux.go" || base == "time.go" ||
		strings.HasPrefix(base, "lock_") || strings.HasPrefix(base, "netpoll") || strings.HasPrefix(base, "sys_linux_"):
		return "runtime.sched"
	}
	return ""
}
