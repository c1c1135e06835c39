// Package dist adds multi-host execution to the engine: a worker daemon
// (cmd/gopard) executes jobs sent over TCP, and Pool — a core.Runner —
// fans an engine's jobs out across workers. Because remote execution is
// just another Runner, every engine feature (slots, keep-order, retries,
// halt policies, joblogs, resume) composes with it unchanged.
//
// This is the library-native equivalent of GNU Parallel's --sshlogin
// (the paper instead shards input per node with a driver script —
// Listing 1 — which internal/cluster models; dist covers the
// direct-distribution alternative for clusters without a scheduler).
//
// The wire has one dialect, protocol version 3. On accept the worker
// sends one JSON hello line naming its version, name and slot count;
// the coordinator accepts only version 3 and at least one slot, and
// from then on both sides speak the binary frames of protocol_v3.go.
// One connection multiplexes the worker's whole slot pool: a writer
// goroutine on each side coalesces queued jobs (or results) into one
// frame and flushes only when its queue goes idle, so a dispatch burst
// pays one syscall instead of one per job. Frames carry varint headers,
// length-delimited strings, a CRC32C trailer and optional deflate for
// large payloads, with zero steady-state allocations per job on the
// encode and decode paths.
//
// A peer from a build that predates the single dialect announces
// version 1 in its hello, and either side rejects the other with an
// error that names both versions. There is no authentication: like
// rsh-era sshlogin, it is for trusted networks (or localhost) only, and
// says so in cmd/gopard's usage.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"time"
)

// protocolVersion is the only wire version this build speaks.
const protocolVersion = 3

// maxHelloLine caps the hello line a coordinator will buffer: it is
// input from outside the program, and a real hello is well under 200
// bytes.
const maxHelloLine = 4 << 10

// hello is sent by the worker, as one JSON line, on connection accept.
type hello struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Slots   int    `json:"slots"`
}

// request is one job execution request.
type request struct {
	Seq     int
	Slot    int
	Command string
	Args    []string
	Env     []string
	Stdin   []byte
	// TimeoutNS caps execution worker-side (belt and braces: the
	// coordinator also enforces it).
	TimeoutNS int64
}

// response reports one job's outcome.
type response struct {
	Seq      int
	ExitCode int
	Err      string
	Stdout   []byte
	Stderr   []byte
	StartNS  int64
	EndNS    int64
	TimedOut bool
	// RecvNS is when the worker received the request (worker clock).
	// StartNS - RecvNS is the worker-side dispatch overhead, a
	// sub-segment of the coordinator's DispatchDelay that span
	// timelines attribute separately.
	RecvNS int64
	// SentBytes is how many stdin bytes the job actually consumed on
	// the worker — the joblog Send column.
	SentBytes int
}

// maxFrame bounds one frame's payload. It protects both sides from a
// corrupt or hostile length prefix; legitimate frames (job argv plus
// captured output, capped at maxBatchItemsV3 entries) sit far below it.
const maxFrame = 16 << 20

// helloLine encodes h as the newline-terminated JSON line a worker
// sends on accept.
func helloLine(h hello) []byte {
	b, _ := json.Marshal(h) // a struct of ints and a string always marshals
	return append(b, '\n')
}

// readHello reads the worker's hello line from br, the same reader the
// coordinator then uses for frames, so no byte after the line is lost.
// It fails as soon as the line outgrows maxHelloLine.
func readHello(br *bufio.Reader) (hello, error) {
	var h hello
	line := make([]byte, 0, 128)
	for {
		c, err := br.ReadByte()
		if err != nil {
			return h, err
		}
		if c == '\n' {
			break
		}
		if len(line) == maxHelloLine {
			return h, fmt.Errorf("hello line exceeds %d bytes; a protocol version %d hello is one short JSON line",
				maxHelloLine, protocolVersion)
		}
		line = append(line, c)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return h, fmt.Errorf("decoding hello: %w", err)
	}
	return h, nil
}

func checkHello(h hello) error {
	if h.Version != protocolVersion {
		return fmt.Errorf("worker %q speaks protocol version %d, this build speaks only version %d",
			h.Name, h.Version, protocolVersion)
	}
	if h.Slots < 1 {
		return fmt.Errorf("worker %q (protocol version %d) advertises %d slots", h.Name, h.Version, h.Slots)
	}
	return nil
}

func nsToTime(ns int64) time.Time { return time.Unix(0, ns) }
