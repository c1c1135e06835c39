package dist

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestCheckHello(t *testing.T) {
	cases := []struct {
		h  hello
		ok bool
	}{
		{hello{Version: protocolVersion, Name: "w", Slots: 1}, true},
		{hello{Version: protocolVersion, Name: "w", Slots: 64}, true},
		{hello{Version: 0, Name: "w", Slots: 1}, false},
		{hello{Version: 1, Name: "w", Slots: 1}, false},
		{hello{Version: protocolVersion + 1, Name: "w", Slots: 1}, false},
		{hello{Version: protocolVersion, Name: "w", Slots: 0}, false},
		{hello{Version: protocolVersion, Name: "w", Slots: -3}, false},
	}
	for _, c := range cases {
		if err := checkHello(c.h); (err == nil) != c.ok {
			t.Errorf("checkHello(%+v) err=%v, want ok=%v", c.h, err, c.ok)
		}
	}
}

// TestProtocolGoldenRoundTrips checks that each message type survives
// its codec bit-for-bit: the hello through its JSON line, a request
// through a jobs frame, and a response with every field set through a
// results frame, together with the frame's telemetry snapshot.
func TestProtocolGoldenRoundTrips(t *testing.T) {
	h := hello{Version: protocolVersion, Name: "n", Slots: 4}
	gotHello, err := readHello(bufio.NewReader(bytes.NewReader(helloLine(h))))
	if err != nil || gotHello != h {
		t.Fatalf("hello round trip: got %+v (%v), want %+v", gotHello, err, h)
	}

	req := request{
		Seq: 42, Slot: 3, Command: "echo hi", Args: []string{"a b", "c"},
		Env: []string{"K=V"}, Stdin: []byte("in\n"), TimeoutNS: 5e9,
	}
	fr := getJobsFrame()
	defer putJobsFrame(fr)
	if err := decodeJobsV3(encodeJobsV3(nil, []request{req}, 0, nil)[1:], fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.reqs) != 1 || !reflect.DeepEqual(fr.reqs[0], req) {
		t.Fatalf("request round trip:\ngot  %+v\nwant %+v", fr.reqs, req)
	}

	resp := response{
		Seq: 42, ExitCode: -7, Err: "boom", Stdout: []byte("out"),
		Stderr: []byte("err"), StartNS: 100, EndNS: 200, TimedOut: true,
		RecvNS: 90, SentBytes: 3,
	}
	snap := telemetry.Snapshot{Worker: "w1", Slots: 8, Busy: 2, Started: 10, OK: 9, Failed: 1, UnixNano: 300}
	body := encodeResultsV3(nil, []response{resp}, snap, true, 0, nil)
	resps, gotSnap, hasSnap, err := decodeResultsV3(body[1:], nil, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || !reflect.DeepEqual(resps[0], resp) {
		t.Fatalf("response round trip:\ngot  %+v\nwant %+v", resps, resp)
	}
	if !hasSnap || gotSnap != snap {
		t.Fatalf("snapshot round trip: got %+v (present=%v), want %+v", gotSnap, hasSnap, snap)
	}
}

// TestProtocolGoldenWire freezes the one JSON message left on the
// wire: the hello line a worker sends on accept. Older builds decode it
// with a strict version check, so these bytes are what makes an old
// coordinator refuse a current worker.
func TestProtocolGoldenWire(t *testing.T) {
	coord, worker := net.Pipe()
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go serveConn(ctx, worker, WorkerConfig{Name: "n", Slots: 4, Runner: echoRunner("n")})
	line, err := bufio.NewReader(coord).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"version":3,"name":"n","slots":4}` + "\n"; line != want {
		t.Fatalf("hello wire = %q, want %q", line, want)
	}

	// Hellos from older builds still decode, unknown fields such as
	// max_version included, so it is the version check that rejects
	// them rather than a JSON error.
	old := `{"version":1,"name":"o","slots":2,"max_version":3}` + "\n"
	h, err := readHello(bufio.NewReader(strings.NewReader(old)))
	if err != nil || h != (hello{Version: 1, Name: "o", Slots: 2}) {
		t.Fatalf("old hello decode = %+v, %v", h, err)
	}
	if err := checkHello(h); err == nil {
		t.Fatal("old hello passed the version check")
	}
}

// FuzzProtocolRoundTrip encodes a request and a response through the
// binary codec and requires both to decode to the same values. A low
// deflate threshold sends longer payloads through the compressed path.
func FuzzProtocolRoundTrip(f *testing.F) {
	f.Add(1, 1, "echo {}", []byte("stdin"), int64(0), true)
	f.Add(0, 0, "", []byte(nil), int64(-1), false)
	f.Add(1<<30, 255, "cmd \x00 weird \n\t\"quotes\"", []byte{0xff, 0x00}, int64(1e18), true)
	f.Fuzz(func(t *testing.T, seq, slot int, command string, stdin []byte, timeout int64, withTel bool) {
		const deflateMin = 16
		req := request{Seq: seq, Slot: slot, Command: command, Args: []string{command}, Stdin: stdin, TimeoutNS: timeout}
		resp := response{
			Seq: seq, ExitCode: slot, Err: command, Stdout: stdin, Stderr: stdin,
			StartNS: timeout, EndNS: timeout + 1, RecvNS: timeout, TimedOut: withTel, SentBytes: len(stdin),
		}
		snap := telemetry.Snapshot{Worker: command, Slots: slot, Started: int64(seq), UnixNano: timeout}

		fr := getJobsFrame()
		defer putJobsFrame(fr)
		if err := decodeJobsV3(encodeJobsV3(nil, []request{req}, deflateMin, nil)[1:], fr); err != nil {
			t.Fatal(err)
		}
		gotReq := fr.reqs[0]
		// The decoder reuses capacity, so empty fields may decode as
		// empty rather than nil slices; normalize before compare.
		if len(gotReq.Env) == 0 {
			gotReq.Env = nil
		}
		if len(req.Stdin) == 0 {
			req.Stdin, gotReq.Stdin = nil, nil
		}
		if !reflect.DeepEqual(gotReq, req) {
			t.Fatalf("request:\ngot  %+v\nwant %+v", gotReq, req)
		}

		body := encodeResultsV3(nil, []response{resp}, snap, withTel, deflateMin, nil)
		resps, gotSnap, hasSnap, err := decodeResultsV3(body[1:], nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Stdout) == 0 {
			resp.Stdout, resp.Stderr = nil, nil
		}
		if len(resps) != 1 || !reflect.DeepEqual(resps[0], resp) {
			t.Fatalf("response:\ngot  %+v\nwant %+v", resps, resp)
		}
		if hasSnap != withTel || (withTel && gotSnap != snap) {
			t.Fatalf("snapshot: got %+v (present=%v), want %+v (present=%v)", gotSnap, hasSnap, snap, withTel)
		}
	})
}

// FuzzFrameDecoder throws arbitrary bytes at the coordinator's inbound
// stream: the hello line, then result frames, read from one
// bufio.Reader as Dial and the session reader do. It must return data
// or an error, never panic or over-allocate.
func FuzzFrameDecoder(f *testing.F) {
	hl := helloLine(hello{Version: protocolVersion, Name: "w", Slots: 2})
	var frame bytes.Buffer
	bw := bufio.NewWriter(&frame)
	rb := encodeResultsV3(nil, []response{{Seq: 2, ExitCode: 1, Stderr: []byte("boom")}},
		telemetry.Snapshot{Worker: "w", Slots: 2}, true, 0, nil)
	if err := writeFrameV3(bw, rb, nil); err != nil {
		f.Fatal(err)
	}
	bw.Flush()
	f.Add(append(append([]byte(nil), hl...), frame.Bytes()...))
	f.Add(hl)
	f.Add([]byte(`{"version":1,"name":"old","slots":2,"max_version":3}` + "\n"))
	f.Add(append(append([]byte(nil), hl...), 0, 0, 0, 9, '{'))
	f.Add(bytes.Repeat([]byte("x"), maxHelloLine+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		h, err := readHello(br)
		if err != nil || checkHello(h) != nil {
			return
		}
		var buf []byte
		var dst []response
		for i := 0; i < 4; i++ { // a stream may hold several frames
			typ, body, err := readFrameV3(br, &buf, nil)
			if err != nil {
				return
			}
			if typ == frameResultsV3 {
				dst, _, _, _ = decodeResultsV3(body, dst, h.Name)
			}
		}
	})
}

// TestFrameRoundTrip pins the framing layer and both send loops: a
// frame survives write/read byte-exactly, and a queued burst of 50
// messages leaves as a single frame in each direction, the results
// frame carrying one telemetry snapshot.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	body := encodeJobsV3(nil, []request{
		{Seq: 1, Command: "a", Env: []string{"K=V"}},
		{Seq: 2, Command: "b", Stdin: []byte{0, 1, 2}},
	}, 0, nil)
	if err := writeFrameV3(bw, body, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	var rbuf []byte
	typ, got, err := readFrameV3(bufio.NewReader(&buf), &rbuf, nil)
	if err != nil || typ != frameJobsV3 || !bytes.Equal(got, body[1:]) {
		t.Fatalf("frame round trip: typ=%d err=%v body=%x, want %x", typ, err, got, body[1:])
	}

	buf.Reset()
	bw.Reset(&buf)
	jobs := make(chan request, 64)
	for i := 0; i < 50; i++ {
		jobs <- request{Seq: i}
	}
	close(jobs)
	if err := v3JobsLoop(bw, jobs, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	typ, got, err = readFrameV3(br, &rbuf, nil)
	if err != nil || typ != frameJobsV3 {
		t.Fatalf("jobs frame: typ=%d err=%v", typ, err)
	}
	fr := getJobsFrame()
	defer putJobsFrame(fr)
	if err := decodeJobsV3(got, fr); err != nil || len(fr.reqs) != 50 {
		t.Fatalf("first frame carries %d jobs (%v), want all 50 coalesced", len(fr.reqs), err)
	}
	if _, _, err := readFrameV3(br, &rbuf, nil); err == nil {
		t.Fatal("unexpected extra frame after coalesced jobs burst")
	}

	buf.Reset()
	bw.Reset(&buf)
	results := make(chan response, 64)
	for i := 0; i < 50; i++ {
		results <- response{Seq: i}
	}
	close(results)
	wt := NewWorkerTelemetry()
	wt.name = "w"
	if err := v3ResultsLoop(bw, results, wt, 0, nil); err != nil {
		t.Fatal(err)
	}
	br = bufio.NewReader(&buf)
	typ, got, err = readFrameV3(br, &rbuf, nil)
	if err != nil || typ != frameResultsV3 {
		t.Fatalf("results frame: typ=%d err=%v", typ, err)
	}
	resps, snap, hasSnap, err := decodeResultsV3(got, nil, "w")
	if err != nil || len(resps) != 50 || !hasSnap || snap.Worker != "w" {
		t.Fatalf("results frame: %d results, snapshot %+v (present=%v), err=%v; want 50 and one snapshot",
			len(resps), snap, hasSnap, err)
	}
	if _, _, err := readFrameV3(br, &rbuf, nil); err == nil {
		t.Fatal("unexpected extra frame after coalesced results burst")
	}
}

// TestFrameSizeLimit pins both directions of the frame cap.
func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrameV3(bw, make([]byte, maxFrame-3), nil); err == nil {
		t.Fatal("writeFrameV3 accepted a frame over maxFrame")
	}
	if buf.Len() != 0 || bw.Buffered() != 0 {
		t.Fatal("writeFrameV3 wrote part of a rejected frame")
	}
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	var rbuf []byte
	if _, _, err := readFrameV3(bufio.NewReader(bytes.NewReader(hdr)), &rbuf, nil); err == nil {
		t.Fatal("readFrameV3 accepted an oversized header")
	}
	if cap(rbuf) != 0 {
		t.Fatalf("readFrameV3 allocated %d bytes for a rejected header", cap(rbuf))
	}
}
