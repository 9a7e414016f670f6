//go:build go1.23

package sim

import "iter"

// Proc is a simulation process: a coroutine scheduled cooperatively by the
// kernel. All Proc methods must be called from the process's own function.
type Proc struct {
	env    *Env
	name   string
	fn     func(*Proc) // body for the current life (see startProc)
	parked bool        // suspended in Park, awaiting Env.Unpark

	// next resumes the coroutine and returns when it yields; suspend is
	// the coroutine's yield; stop ends the coroutine (see Env.Close). All
	// three are fixed for the shell's lifetime.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
}

// Name returns the label given to Go when the process was spawned (empty
// for a process started by GoAfter).
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns fn as a new process, starting at the current virtual time
// (after already-scheduled events at this time, preserving FIFO order).
func (e *Env) Go(name string, fn func(p *Proc)) {
	e.nproc++
	e.scheduleWake(0, e.startProc(name, fn))
}

// GoAfter starts fn as a new process delay seconds from now. Until then
// nothing exists for it but its event: no shell and no coroutine. A
// process that would otherwise sleep out the rest of its life before a
// last step can instead finish at once and leave that step to GoAfter;
// the step then runs in the (time, sequence) slot the sleep's wakeup
// would have taken. An invalid delay (negative or NaN) panics.
func (e *Env) GoAfter(delay Time, fn func(p *Proc)) {
	checkDelay(delay)
	ev := e.newEvent(e.now+delay, nil, nil)
	ev.body = fn
}

// startProc takes a finished process shell from the free list or
// allocates a new one. A shell's coroutine stays suspended at the end of
// its loop between lives, so steady-state process churn (the directors
// spawn one process per VM deployed) reuses the coroutine and the Proc
// instead of allocating both. The free list is only touched by the kernel
// or by a shell the kernel is blocked on in wake, so the coroutine switch
// orders every access.
func (e *Env) startProc(name string, fn func(*Proc)) *Proc {
	if k := len(e.procFree); k > 0 {
		p := e.procFree[k-1]
		e.procFree[k-1] = nil
		e.procFree = e.procFree[:k-1]
		p.name, p.fn = name, fn
		return p
	}
	return &Proc{env: e, name: name, fn: fn}
}

// wake hands control to p and returns when p yields back. A new shell's
// coroutine is built on its first wake, so a model that spawns processes
// while it is built does not pay for coroutines before it runs; the Env
// keeps every shell it built for Close. A panic in the process body comes
// out of next here, on the kernel's goroutine.
func (e *Env) wake(p *Proc) {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.loop)
		e.shells = append(e.shells, p)
	}
	e.active = p
	e.wakes++
	p.next()
	e.active = nil
}

// closedPanic is the panic value that unwinds a process parked mid-body
// when Env.Close stops its coroutine.
type closedPanic struct{}

// loop is a shell's coroutine. Each pass runs one life, returns the shell
// to the free list and suspends until a later Go hands it a new body and
// the kernel wakes it. It returns when Close stops the coroutine: at
// once from the free list, or, from inside a body, by recovering the
// closedPanic that yield raises. Any other panic passes through.
func (p *Proc) loop(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil && r != any(closedPanic{}) {
			panic(r)
		}
	}()
	p.suspend = yield
	for {
		p.fn(p)
		p.fn = nil
		p.env.nproc--
		p.env.procFree = append(p.env.procFree, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// yield returns control from the process to the kernel and blocks until
// some event resumes the process. If Close stops the coroutine instead,
// yield unwinds the body.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(closedPanic{})
	}
}

// Sleep blocks the process for d seconds of virtual time. An invalid d
// (negative or NaN) panics.
func (p *Proc) Sleep(d Time) {
	checkDelay(d)
	p.env.scheduleWake(d, p)
	p.yield()
}

// Yield is Sleep(0): the process waits behind every event already due at
// the current instant and resumes in the (time, sequence) slot its
// wakeup takes. When no other event is due now and Run has not been
// stopped, that wakeup would be the very next event, so Yield only
// takes its sequence number and continues without the switch.
func (p *Proc) Yield() {
	e := p.env
	if !e.stopped {
		if ev := e.peek(); ev == nil || ev.at > e.now {
			e.seq++
			return
		}
	}
	e.scheduleWake(0, p)
	p.yield()
}

// Park suspends the process, scheduling nothing, until an event callback
// passes it to Env.Unpark.
func (p *Proc) Park() {
	p.parked = true
	p.yield()
}

// Unpark switches into p, which must be suspended in Park, and returns
// when p blocks again. Only an event callback may call it: the callback
// hands p the rest of its event, so p runs in that (time, sequence)
// slot without scheduling a wakeup.
func (e *Env) Unpark(p *Proc) {
	if !p.parked || e.active != nil {
		panic("sim: Unpark of a process that is not parked, or from inside a process")
	}
	p.parked = false
	e.wake(p)
}

// Close ends every coroutine the Env built: a finished shell's returns
// from its loop, and a process parked mid-body unwinds, running its
// deferred calls. Without Close those coroutines stay parked for the life
// of the program, since nothing else resumes them. Whoever builds an Env
// and drops it after its last Run calls Close; the Env must not run
// again. Close panics during Run, and a second Close does nothing.
func (e *Env) Close() {
	if e.running {
		panic("sim: Close called during Run")
	}
	e.closed = true
	shells := e.shells
	e.shells, e.procFree = nil, nil
	for _, p := range shells {
		p.stop()
	}
}
