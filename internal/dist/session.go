package dist

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"

	"repro/internal/telemetry"
)

// errSessionDead reports a multiplexed session whose connection already
// failed.
var errSessionDead = errors.New("dist: worker session lost")

// respChanPool recycles the per-round-trip wake channels. A channel is
// returned to the pool only after its response has been received, so a
// pooled channel is always empty; abandoned round trips (context
// cancellation) let their channel go to the garbage collector instead,
// because the reader may still be about to deliver into it.
var respChanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// session multiplexes one worker's whole slot pool over a single
// connection. Run calls enqueue requests on sendq (a writer goroutine
// coalesces them into frames), park on a per-seq channel, and are woken
// by the reader goroutine when their response arrives in some result
// frame. Concurrency is bounded outside the session by the pool's
// virtual slot tokens, and worker-side by its own slot workers.
type session struct {
	name  string
	addr  string
	slots int
	nc    net.Conn

	sendq chan request

	// wire is the pool's shared traffic counter set.
	wire *WireStats
	// onSnap receives the telemetry snapshot piggybacked on result
	// frames.
	onSnap func(telemetry.Snapshot)

	mu      sync.Mutex
	pending map[int]chan response
	// onFail, when set, runs (once, on its own goroutine) after the
	// session dies — the pool uses it to retire capacity proactively
	// instead of waiting for the next job to trip over the dead session.
	onFail func()

	dead     chan struct{}
	failOnce sync.Once
	// retired guards the pool-side capacity accounting so that many
	// concurrent Run failures retire the session exactly once.
	retired sync.Once
}

func newSession(name, addr string, slots int, nc net.Conn, br *bufio.Reader, bw *bufio.Writer, deflateMin int, wire *WireStats, onSnap func(telemetry.Snapshot)) *session {
	s := &session{
		name:    name,
		addr:    addr,
		slots:   slots,
		nc:      nc,
		sendq:   make(chan request, maxBatchItemsV3),
		wire:    wire,
		onSnap:  onSnap,
		pending: map[int]chan response{},
		dead:    make(chan struct{}),
	}
	go s.readLoopV3(br)
	go func() {
		if err := v3JobsLoop(bw, s.sendq, s.dead, deflateMin, wire); err != nil {
			s.fail()
		}
	}()
	return s
}

// fail marks the session dead and tears down the connection; all parked
// round-trips unblock through the dead channel.
func (s *session) fail() {
	s.failOnce.Do(func() {
		close(s.dead)
		s.nc.Close()
		s.mu.Lock()
		fn := s.onFail
		s.mu.Unlock()
		if fn != nil {
			go fn()
		}
	})
}

// setOnFail installs the death notification hook. The session's reader
// starts before the pool registers its tokens, so the hook arrives
// late; if the session already died in that window, fire immediately.
func (s *session) setOnFail(fn func()) {
	s.mu.Lock()
	s.onFail = fn
	s.mu.Unlock()
	if s.isDead() {
		fn()
	}
}

func (s *session) isDead() bool {
	select {
	case <-s.dead:
		return true
	default:
		return false
	}
}

// deliver hands one response to whichever round trip is parked on its
// seq; responses for abandoned jobs are dropped.
func (s *session) deliver(resp response) {
	s.mu.Lock()
	ch := s.pending[resp.Seq]
	delete(s.pending, resp.Seq)
	s.mu.Unlock()
	if ch != nil {
		ch <- resp // buffered; never blocks the reader
	}
}

// readLoopV3 decodes binary result frames. The frame buffer and
// response scratch are reused across frames; result payloads were
// copied out by the decoder, so recycling is safe the moment delivery
// finishes.
func (s *session) readLoopV3(br *bufio.Reader) {
	var buf []byte
	var resps []response
	for {
		typ, body, err := readFrameV3(br, &buf, s.wire)
		if err != nil || typ != frameResultsV3 {
			s.fail()
			return
		}
		rs, snap, hasSnap, derr := decodeResultsV3(body, resps, s.name)
		resps = rs
		if derr != nil {
			s.fail()
			return
		}
		for i := range resps {
			s.deliver(resps[i])
		}
		if hasSnap && s.onSnap != nil {
			s.onSnap(snap)
		}
	}
}

// roundTrip ships one request and waits for its response. A context
// cancellation abandons the job (its eventual response is discarded on
// arrival) but leaves the session healthy — one cancelled job must not
// tear down a multiplexed connection carrying its neighbors.
func (s *session) roundTrip(ctx context.Context, req request) (response, error) {
	ch := respChanPool.Get().(chan response)
	s.mu.Lock()
	s.pending[req.Seq] = ch
	s.mu.Unlock()
	abandon := func() {
		s.mu.Lock()
		delete(s.pending, req.Seq)
		s.mu.Unlock()
		// The channel is NOT pooled: the reader may have looked it up
		// before the delete and be about to send.
	}
	select {
	case s.sendq <- req:
	case <-ctx.Done():
		abandon()
		return response{}, ctx.Err()
	case <-s.dead:
		abandon()
		return response{}, errSessionDead
	}
	select {
	case resp := <-ch:
		respChanPool.Put(ch)
		return resp, nil
	case <-ctx.Done():
		abandon()
		return response{}, ctx.Err()
	case <-s.dead:
		abandon()
		return response{}, errSessionDead
	}
}
