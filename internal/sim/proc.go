package sim

import "time"

// Proc is a simulated process: a goroutine that advances only when the
// engine resumes it, and that parks whenever it waits on virtual time or a
// synchronization primitive. Exactly one of {engine, some process} runs at
// any instant (strict handoff), which keeps the simulation deterministic.
//
// Proc structs (and their resume channels) are pooled: when a process
// body returns, its struct goes back to the engine's free list and the
// next Spawn reuses it, so steady-state spawning allocates nothing
// beyond the caller's own body closure. For straight-line "sleep → do →
// done" work, prefer the even cheaper Program layer (no goroutine at
// all).
//
// All Proc methods must be called from the process's own goroutine (i.e.
// from inside the function passed to Engine.Spawn).
type Proc struct {
	e      *Engine
	resume chan struct{}
	name   string
	// body is the function the next start event will run.
	body func(p *Proc)
	// startFn and wakeFn are the method values scheduled as engine
	// events, bound once per pooled struct so Spawn and Sleep do not
	// allocate a new closure per call.
	startFn func()
	wakeFn  func()
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// getProc takes a Proc from the free list (or builds one), arming it
// with the given name and body.
func (e *Engine) getProc(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
	} else {
		p = &Proc{e: e, resume: make(chan struct{})}
		p.startFn = p.start
		p.wakeFn = p.wake
	}
	p.name = name
	p.body = fn
	return p
}

// Spawn starts fn as a simulated process at the current virtual time. The
// process begins running when the engine reaches its start event. Spawn may
// be called from the engine context (event callbacks, before Run) or from
// another process.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := e.getProc(name, fn)
	e.nproc++
	e.After(0, p.startFn)
	return p
}

// SpawnAt is like Spawn but the process starts at virtual time t.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := e.getProc(name, fn)
	e.nproc++
	e.At(t, p.startFn)
	return p
}

// start is the start event: it launches the body goroutine and blocks
// (in engine context) until the process parks or finishes.
func (p *Proc) start() {
	go p.run()
	<-p.e.yield
}

// run executes the body in the process goroutine, then retires the
// struct to the free list and hands control back to the engine. The
// free-list append happens before the yield handoff, which is safe: the
// engine goroutine is blocked on yield until this goroutine completes
// the send, so no two goroutines touch the list concurrently.
func (p *Proc) run() {
	e := p.e
	p.body(p)
	e.nproc--
	p.body = nil
	e.procFree = append(e.procFree, p)
	e.yield <- struct{}{}
}

// park blocks the calling process until wake is invoked from engine
// context. The handoff protocol: the process tells the engine it is about
// to block (send on yield), then waits on its private resume channel.
func (p *Proc) park() {
	p.e.yield <- struct{}{}
	<-p.resume
}

// wake resumes a parked process and blocks (in engine context) until the
// process parks again or finishes. wake must only be called from engine
// context (an event callback), never from another process's goroutine.
func (p *Proc) wake() {
	p.resume <- struct{}{}
	<-p.e.yield
}

// Sleep suspends the process for d of virtual time. Negative d is treated
// as zero (still yields to the engine once).
func (p *Proc) Sleep(d time.Duration) {
	p.e.After(d, p.wakeFn)
	p.park()
}

// Yield gives other same-time events a chance to run before continuing.
// Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }
