//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine scheduled cooperatively by the
// kernel. All Proc methods must be called from the process's own function.
type Proc struct {
	env  *Env
	name string
	fn   func(*Proc) // body for the current life (see startProc)

	// next resumes the coroutine and returns when it yields; suspend is
	// the coroutine's yield. Both are fixed for the shell's lifetime.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
}

// Name returns the label given to Go when the process was spawned.
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
// while it is built does not pay for coroutines before it runs. A panic
// in the process body comes out of next here, on the kernel's goroutine.
func (e *Env) wake(p *Proc) {
	if p.next == nil {
		p.next, _ = iter.Pull(p.loop)
	}
	p.next()
}

// loop is a shell's coroutine. Each pass runs one life, returns the shell
// to the free list and suspends until a later Go hands it a new body and
// the kernel wakes it.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.suspend = yield
	for {
		p.fn(p)
		p.fn = nil
		p.env.nproc--
		p.env.procFree = append(p.env.procFree, p)
		yield(struct{}{})
	}
}

// yield returns control from the process to the kernel and blocks until
// some event resumes the process.
func (p *Proc) yield() { p.suspend(struct{}{}) }

// Sleep blocks the process for d seconds of virtual time. Negative d
// panics.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.env.scheduleWake(d, p)
	p.yield()
}
