package mq

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/args"
	"repro/internal/core"
)

func TestTopicAppendRead(t *testing.T) {
	dir := t.TempDir()
	tp, err := OpenTopic(dir, "events")
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	msgs := []string{"first", "second", "третий"}
	for i, m := range msgs {
		seq, err := tp.Append([]byte(m))
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if tp.Len() != 3 {
		t.Fatalf("len = %d", tp.Len())
	}
	for i, m := range msgs {
		got, err := tp.Read(int64(i))
		if err != nil || string(got) != m {
			t.Fatalf("Read(%d) = %q, %v", i, got, err)
		}
	}
	if _, err := tp.Read(3); err == nil {
		t.Fatal("read past end succeeded")
	}
	if _, err := tp.Read(-1); err == nil {
		t.Fatal("negative read succeeded")
	}
}

func TestTopicPersistenceAndTornWrite(t *testing.T) {
	dir := t.TempDir()
	tp, _ := OpenTopic(dir, "dur")
	tp.Append([]byte("alpha"))
	tp.Append([]byte("beta"))
	tp.Close()

	// Simulate a torn trailing write (crash mid-append).
	path := filepath.Join(dir, "dur.log")
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{200, 0, 0, 0, 'p', 'a', 'r'}) // length 200, 3 bytes present
	f.Close()

	tp2, err := OpenTopic(dir, "dur")
	if err != nil {
		t.Fatal(err)
	}
	defer tp2.Close()
	if tp2.Len() != 2 {
		t.Fatalf("len after torn write = %d, want 2", tp2.Len())
	}
	got, err := tp2.Read(1)
	if err != nil || string(got) != "beta" {
		t.Fatalf("Read(1) = %q, %v", got, err)
	}
	// Appending after repair works.
	if seq, err := tp2.Append([]byte("gamma")); err != nil || seq != 2 {
		t.Fatalf("append after repair: %d, %v", seq, err)
	}
}

func TestTopicCommitOffsets(t *testing.T) {
	dir := t.TempDir()
	tp, _ := OpenTopic(dir, "t")
	defer tp.Close()
	if n, err := tp.Committed("workers"); err != nil || n != 0 {
		t.Fatalf("fresh group = %d, %v", n, err)
	}
	if err := tp.Commit("workers", 5); err != nil {
		t.Fatal(err)
	}
	if n, _ := tp.Committed("workers"); n != 5 {
		t.Fatalf("committed = %d", n)
	}
	// Groups are independent.
	if n, _ := tp.Committed("analytics"); n != 0 {
		t.Fatalf("other group = %d", n)
	}
}

func TestTopicInvalidNames(t *testing.T) {
	if _, err := OpenTopic(t.TempDir(), "../evil"); err == nil {
		t.Fatal("path traversal accepted")
	}
	if _, err := OpenTopic(t.TempDir(), ""); err == nil {
		t.Fatal("empty name accepted")
	}
	tp, _ := OpenTopic(t.TempDir(), "ok")
	defer tp.Close()
	if err := tp.Commit("bad/group", 1); err == nil {
		t.Fatal("bad group accepted")
	}
}

func TestTopicWaitFor(t *testing.T) {
	tp, _ := OpenTopic(t.TempDir(), "w")
	defer tp.Close()
	ch := tp.WaitFor(0)
	select {
	case <-ch:
		t.Fatal("WaitFor fired before append")
	case <-time.After(20 * time.Millisecond):
	}
	tp.Append([]byte("x"))
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitFor did not fire on append")
	}
	// Already-satisfied wait returns a closed channel.
	select {
	case <-tp.WaitFor(0):
	default:
		t.Fatal("satisfied WaitFor not immediately ready")
	}
}

func startBroker(t *testing.T) (addr string) {
	t.Helper()
	b := NewBroker(t.TempDir())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); b.Close() })
	go b.Serve(ctx, l)
	return l.Addr().String()
}

func TestBrokerEndToEnd(t *testing.T) {
	addr := startBroker(t)
	c, err := DialBroker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seq, err := c.Produce("jobs", []byte("payload-1"))
	if err != nil || seq != 0 {
		t.Fatalf("produce: %d, %v", seq, err)
	}
	c.Produce("jobs", []byte("payload-2"))

	msg, ok, err := c.Consume("jobs", 0, 0)
	if err != nil || !ok || string(msg) != "payload-1" {
		t.Fatalf("consume: %q %v %v", msg, ok, err)
	}
	if n, _ := c.Len("jobs"); n != 2 {
		t.Fatalf("len = %d", n)
	}
	if err := c.Commit("jobs", "g1", 2); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Committed("jobs", "g1"); n != 2 {
		t.Fatalf("committed = %d", n)
	}
	// Missing message without wait: ok=false.
	_, ok, err = c.Consume("jobs", 99, 0)
	if err != nil || ok {
		t.Fatalf("consume past end: ok=%v err=%v", ok, err)
	}
}

func TestBrokerLongPoll(t *testing.T) {
	addr := startBroker(t)
	prod, _ := DialBroker(addr)
	cons, _ := DialBroker(addr)
	defer prod.Close()
	defer cons.Close()

	got := make(chan string, 1)
	go func() {
		msg, ok, err := cons.Consume("lp", 0, 5*time.Second)
		if err != nil || !ok {
			got <- fmt.Sprintf("error: %v ok=%v", err, ok)
			return
		}
		got <- string(msg)
	}()
	time.Sleep(30 * time.Millisecond) // consumer is now parked
	if _, err := prod.Produce("lp", []byte("woke")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "woke" {
			t.Fatalf("long poll got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never returned")
	}
}

func TestEngineConsumesTopic(t *testing.T) {
	// The §IV-A production pattern: producer stage appends batches to a
	// topic; a parallel engine consumes the topic as its input source.
	addr := startBroker(t)
	prod, _ := DialBroker(addr)
	defer prod.Close()
	consClient, _ := DialBroker(addr)
	defer consClient.Close()

	const batches = 12
	go func() {
		for i := 0; i < batches; i++ {
			prod.Produce("batches", []byte(fmt.Sprintf("batch-%02d", i)))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var processed []string
	runner := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		mu.Lock()
		processed = append(processed, job.Args[0])
		n := len(processed)
		mu.Unlock()
		if n == batches {
			cancel() // all consumed: end the streaming source
		}
		return nil, nil
	})
	spec, _ := core.NewSpec("", 4)
	eng, _ := core.NewEngine(spec, runner)
	src := SourceFrom(ctx, consClient, "batches", "engine")
	stats, _, err := eng.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Succeeded != batches {
		t.Fatalf("stats = %+v", stats)
	}
	seen := map[string]bool{}
	for _, p := range processed {
		seen[p] = true
	}
	if len(seen) != batches {
		t.Fatalf("distinct batches = %d (processed %v)", len(seen), processed)
	}
	// Offsets committed: a new source for the same group sees nothing.
	if n, _ := consClient.Committed("batches", "engine"); n != batches {
		t.Fatalf("committed = %d, want %d", n, batches)
	}
}

func TestConcurrentProducers(t *testing.T) {
	tp, _ := OpenTopic(t.TempDir(), "conc")
	defer tp.Close()
	var wg sync.WaitGroup
	const producers, each = 8, 50
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := tp.Append([]byte(fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if tp.Len() != producers*each {
		t.Fatalf("len = %d", tp.Len())
	}
	// Every message is readable and distinct.
	seen := map[string]bool{}
	for i := int64(0); i < tp.Len(); i++ {
		m, err := tp.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(m)] {
			t.Fatalf("duplicate message %q", m)
		}
		seen[string(m)] = true
	}
}

// TestConcurrentAppendTailRead races a producer against a consumer that
// keeps reading one past the tail — the out-of-range path a caught-up
// consumer hits on every poll. Under -race this pins that the error
// message reads the topic's length under the lock.
func TestConcurrentAppendTailRead(t *testing.T) {
	tp, err := OpenTopic(t.TempDir(), "tail")
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	const msgs = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < msgs; i++ {
			if _, err := tp.Append([]byte("m")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var next int64
	for next < msgs {
		if _, err := tp.Read(next); err == nil {
			next++
		} else if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Read(%d): %v", next, err)
		}
	}
	<-done
}

// Property: append/read round-trips arbitrary payloads in order, across
// a close/reopen cycle.
func TestPropertyTopicRoundTrip(t *testing.T) {
	f := func(msgs [][]byte) bool {
		if len(msgs) > 64 {
			return true
		}
		dir := t.TempDir()
		tp, err := OpenTopic(dir, "prop")
		if err != nil {
			return false
		}
		for _, m := range msgs {
			if _, err := tp.Append(m); err != nil {
				return false
			}
		}
		tp.Close()
		tp2, err := OpenTopic(dir, "prop")
		if err != nil {
			return false
		}
		defer tp2.Close()
		if tp2.Len() != int64(len(msgs)) {
			return false
		}
		for i, want := range msgs {
			got, err := tp2.Read(int64(i))
			if err != nil || string(got) != string(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

var _ args.Source = (args.SourceFunc)(nil)

func BenchmarkTopicAppend(b *testing.B) {
	tp, err := OpenTopic(b.TempDir(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer tp.Close()
	msg := []byte("a representative workflow queue message payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.Append(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopicRead(b *testing.B) {
	tp, _ := OpenTopic(b.TempDir(), "bench")
	defer tp.Close()
	for i := 0; i < 1000; i++ {
		tp.Append([]byte("message payload for read benchmarking"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.Read(int64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrokerRoundTrip(b *testing.B) {
	br := NewBroker(b.TempDir())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer br.Close()
	go br.Serve(ctx, l)
	c, err := DialBroker(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	msg := []byte("round trip payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Produce("rt", msg); err != nil {
			b.Fatal(err)
		}
	}
}
