package sim

import "repro/internal/ring"

// Synchronization primitives for simulated processes. All wake-ups are
// funneled through engine events scheduled at the current virtual time, so
// a process releasing a resource never resumes another process directly;
// determinism is preserved by the event queue's (time, seq) ordering.
//
// Wait queues are ring buffers (internal/ring), not `q = q[1:]` slices:
// a saturated resource at full scale cycles millions of waiters through a
// small queue, and slice-shift pops would turn that into repeated
// realloc-and-copy work for the garbage collector.

// Signal is a one-shot broadcast event: processes Wait until Fire is
// called; waits after Fire return immediately.
type Signal struct {
	e       *Engine
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{e: e} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and wakes all waiters. Safe to call from
// either engine or process context; calling it twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	ws := s.waiters
	s.waiters = nil
	for _, p := range ws {
		s.e.After(0, p.wakeFn)
	}
}

// Wait parks p until the signal fires (or returns immediately if it
// already has).
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Counter tracks an integer count, waking waiters when it reaches zero.
// It is the simulation analogue of sync.WaitGroup.
type Counter struct {
	e       *Engine
	n       int
	waiters []*Proc
}

// NewCounter returns a counter with initial value n.
func NewCounter(e *Engine, n int) *Counter { return &Counter{e: e, n: n} }

// Add adjusts the count by delta. Decrementing below zero panics.
func (c *Counter) Add(delta int) {
	c.n += delta
	if c.n < 0 {
		panic("sim: Counter went negative")
	}
	if c.n == 0 {
		ws := c.waiters
		c.waiters = nil
		for _, p := range ws {
			c.e.After(0, p.wakeFn)
		}
	}
}

// Done decrements the count by one.
func (c *Counter) Done() { c.Add(-1) }

// Value returns the current count.
func (c *Counter) Value() int { return c.n }

// Wait parks p until the count is zero.
func (c *Counter) Wait(p *Proc) {
	if c.n == 0 {
		return
	}
	c.waiters = append(c.waiters, p)
	p.park()
}

// resWaiter is one queued acquisition: either a parked process (p) or a
// flow continuation (fn). Exactly one of the two is set.
type resWaiter struct {
	p  *Proc
	fn func()
	n  int
}

// Resource is a counted resource with a FIFO wait queue: CPU cores on a
// node, bandwidth tokens of a filesystem, RPC slots of a scheduler.
type Resource struct {
	e       *Engine
	cap     int
	inUse   int
	waiters ring.Ring[resWaiter]
	// granting guards against scheduling redundant dispatch events.
	granting bool
	grantFn  func() // pre-bound grant pass, scheduled by scheduleGrant
}

// NewResource returns a resource with the given capacity. Capacity must be
// positive.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	r := &Resource{e: e, cap: capacity}
	r.grantFn = r.grant
	return r
}

// Cap returns the capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Available returns cap - inUse.
func (r *Resource) Available() int { return r.cap - r.inUse }

// QueueLen returns the number of waiting acquisitions.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Acquire obtains n units for p, parking until available. FIFO order is
// strict: a large request at the head blocks smaller ones behind it, which
// models non-overtaking admission (and avoids starvation).
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.cap {
		panic("sim: Resource.Acquire n out of range")
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		return
	}
	r.waiters.Push(resWaiter{p: p, n: n})
	p.park()
}

// AcquireFlow obtains n units for a lightweight activity, invoking fn
// (in engine context) once granted — immediately when the resource is
// free, otherwise from a later grant pass. It shares the same strict
// FIFO queue as process waiters. A Program's Acquire step is the usual
// entry point.
func (r *Resource) AcquireFlow(n int, fn func()) {
	if n <= 0 || n > r.cap {
		panic("sim: Resource.AcquireFlow n out of range")
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		fn()
		return
	}
	r.waiters.Push(resWaiter{fn: fn, n: n})
}

// TryAcquire obtains n units without waiting, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.cap {
		panic("sim: Resource.TryAcquire n out of range")
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and schedules waiter admission.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Resource.Release more than acquired")
	}
	r.scheduleGrant()
}

func (r *Resource) scheduleGrant() {
	if r.granting || r.waiters.Len() == 0 {
		return
	}
	r.granting = true
	r.e.After(0, r.grantFn)
}

// grant admits queued waiters in FIFO order while capacity allows. It
// runs as an engine event: waking a process (or running a flow
// continuation) executes it synchronously until its next park, exactly
// as the pre-ring implementation did.
func (r *Resource) grant() {
	r.granting = false
	for r.waiters.Len() > 0 {
		w := r.waiters.Front()
		if r.inUse+w.n > r.cap {
			break
		}
		granted := r.waiters.Pop()
		r.inUse += granted.n
		if granted.fn != nil {
			granted.fn()
		} else {
			granted.p.wake()
		}
	}
}

// Use acquires n units, runs for d of virtual time, and releases. It is
// the common "hold a resource while work happens" pattern.
func (r *Resource) Use(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// storeGetter is one queued Get: either a parked process (p) or a flow
// continuation (fn). Exactly one of the two is set.
type storeGetter[T any] struct {
	p  *Proc
	fn func(v T, ok bool)
}

// Store is a FIFO queue of values with optional capacity, the simulation
// analogue of a buffered channel. Put blocks when full (capacity > 0);
// Get blocks when empty.
type Store[T any] struct {
	e       *Engine
	cap     int // 0 = unbounded
	items   ring.Ring[T]
	getters ring.Ring[storeGetter[T]]
	putters ring.Ring[*Proc]
	closed  bool
	pumping bool
	pumpFn  func()
}

// NewStore returns a store with the given capacity; capacity 0 means
// unbounded.
func NewStore[T any](e *Engine, capacity int) *Store[T] {
	s := &Store[T]{e: e, cap: capacity}
	s.pumpFn = s.pumpNow
	return s
}

// Len returns the number of buffered items.
func (s *Store[T]) Len() int { return s.items.Len() }

// Closed reports whether Close has been called.
func (s *Store[T]) Closed() bool { return s.closed }

// Prefill appends items without blocking, for seeding free-lists before
// processes start. It panics if the items exceed a bounded capacity.
func (s *Store[T]) Prefill(items ...T) {
	if s.cap > 0 && s.items.Len()+len(items) > s.cap {
		panic("sim: Prefill exceeds Store capacity")
	}
	for _, v := range items {
		s.items.Push(v)
	}
	s.pump()
}

// Put appends v, parking while the store is full. Put on a closed store
// panics (a model bug).
func (s *Store[T]) Put(p *Proc, v T) {
	if s.closed {
		panic("sim: Put on closed Store")
	}
	for s.cap > 0 && s.items.Len() >= s.cap {
		s.putters.Push(p)
		p.park()
		if s.closed {
			panic("sim: Put on closed Store")
		}
	}
	s.items.Push(v)
	s.pump()
}

// PutNow appends v from engine context (an event callback or flow step)
// without a process to park: it panics if the store is full or closed.
// It is how flows return values — e.g. a finished task handing its slot
// back to the dispatcher's free-list store, which by construction always
// has room.
func (s *Store[T]) PutNow(v T) {
	if s.closed {
		panic("sim: PutNow on closed Store")
	}
	if s.cap > 0 && s.items.Len() >= s.cap {
		panic("sim: PutNow on full Store")
	}
	s.items.Push(v)
	s.pump()
}

// Get removes and returns the oldest item, parking while empty. ok is
// false if the store was closed and drained.
func (s *Store[T]) Get(p *Proc) (v T, ok bool) {
	for s.items.Len() == 0 {
		if s.closed {
			return v, false
		}
		s.getters.Push(storeGetter[T]{p: p})
		p.park()
	}
	v = s.items.Pop()
	s.pump()
	return v, true
}

// GetFlow is Get for a lightweight activity: it removes the oldest item
// and invokes fn(v, true) in engine context — immediately when an item
// is buffered, otherwise from a later pump pass. fn(zero, false) reports
// a closed, drained store. Flow getters share the FIFO of process
// getters, and a queued one takes its item at exactly the point a woken
// process would, so replacing a Proc's Get with GetFlow leaves the event
// order unchanged.
func (s *Store[T]) GetFlow(fn func(v T, ok bool)) {
	if s.items.Len() == 0 {
		if s.closed {
			var zero T
			fn(zero, false)
			return
		}
		s.getters.Push(storeGetter[T]{fn: fn})
		return
	}
	v := s.items.Pop()
	s.pump()
	fn(v, true)
}

// Close marks the store closed: pending and future Gets drain remaining
// items then return ok=false.
func (s *Store[T]) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.pump()
}

// pump schedules waiter wake-ups in engine context.
func (s *Store[T]) pump() {
	if s.pumping {
		return
	}
	if s.getters.Len() == 0 && s.putters.Len() == 0 {
		return
	}
	s.pumping = true
	s.e.After(0, s.pumpFn)
}

func (s *Store[T]) pumpNow() {
	s.pumping = false
	// Wake getters while items remain (or the store is closed, so
	// they can observe it and finish).
	for s.getters.Len() > 0 && (s.items.Len() > 0 || s.closed) {
		g := s.getters.Pop()
		if g.fn == nil {
			g.p.wake()
			continue
		}
		// What a woken Get does: take an item (and re-pump), or observe
		// the closed, drained store.
		var v T
		ok := s.items.Len() > 0
		if ok {
			v = s.items.Pop()
			s.pump()
		}
		g.fn(v, ok)
	}
	// Wake putters while there is room (or closed, so they can
	// panic visibly rather than hang).
	for s.putters.Len() > 0 && (s.cap == 0 || s.items.Len() < s.cap || s.closed) {
		s.putters.Pop().wake()
	}
}
