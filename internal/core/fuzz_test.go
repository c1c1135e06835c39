package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzParseJoblog ensures the joblog parser never panics on corrupt
// logs — truncated lines, partial writes, non-numeric fields — and that
// resume (CompletedSeqs) only ever trusts fully parsed completions:
// every seq it returns must come from an intact line with exitval 0 and
// signal 0.
func FuzzParseJoblog(f *testing.F) {
	f.Add(JoblogHeader + "\n1\t:\t100.5\t2.0\t0\t5\t0\t0\techo a\n")
	f.Add("garbage\twith\ttabs\n")
	f.Add("")
	f.Add("1\t:\tnot\ta\tnumber\tat\tall\there\tcmd\n")
	f.Add(strings.Repeat("9\t", 20))
	// Crash shapes: a valid line followed by a torn partial write.
	f.Add("1\t:\t0.0\t0.1\t0\t0\t0\t0\tok\n2\t:\t0.0\t0.")
	f.Add("1\t:\t0.0\t0.1\t0\t0\t0")                 // torn before exitval
	f.Add("1\t:\t0.0\t0.1\t0\t0\t0\t0\tcmd\x00junk") // NUL-spliced tail
	f.Add("-5\t:\t0.0\t0.1\t0\t0\t0\t0\tnegative seq\n")
	f.Add("1\t:\t0.0\t0.1\t0\t0\t00\t0x0\thex signal\n")
	f.Fuzz(func(t *testing.T, data string) {
		entries, err := ParseJoblog(strings.NewReader(data))
		if err != nil {
			return // only reader/scanner errors remain fatal
		}
		for _, e := range entries {
			if e.Seq < 1 {
				t.Fatalf("parsed entry with bad seq: %+v", e)
			}
		}
		done := CompletedSeqs(entries)
		for seq := range done {
			found := false
			for _, e := range entries {
				if e.Seq == seq && e.Exitval == 0 && e.Signal == 0 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("CompletedSeqs invented seq %d", seq)
			}
		}
	})
}

// FuzzJoblogRoundTrip writes a result and re-parses it: whatever the
// command or output contents (minus interior newlines, which the
// line-oriented format cannot carry), the entry must survive intact.
func FuzzJoblogRoundTrip(f *testing.F) {
	f.Add(1, "echo hi", 0, 12, 34)
	f.Add(7, "tab\tin\tcmd", 3, 0, 0)
	f.Fuzz(func(t *testing.T, seq int, cmd string, exit, sent, recv int) {
		if seq < 1 || strings.ContainsAny(cmd, "\n\r\x00") {
			return
		}
		if exit < 0 || sent < 0 || recv < 0 {
			return
		}
		var b strings.Builder
		now := time.Unix(1700000000, 0)
		WriteJoblogLine(&b, Result{
			Job:       Job{Seq: seq, Command: cmd},
			ExitCode:  exit,
			StdinSent: sent,
			Stdout:    make([]byte, recv),
			Start:     now, End: now.Add(time.Second),
		})
		entries, err := ParseJoblog(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("round trip lost the line: %q", b.String())
		}
		e := entries[0]
		if e.Seq != seq || e.Exitval != exit || e.Command != cmd {
			t.Fatalf("round trip mangled %+v into %+v", fmt.Sprint(seq, cmd, exit), e)
		}
	})
}
