package sim

import "fmt"

// Proc is a goroutine-backed simulation process. A process runs model code
// sequentially in virtual time, blocking on Sleep, conditions, resources
// and queues. The engine guarantees at most one process (or event callback)
// executes at any real-time instant, so model state needs no locking.
//
// All Proc methods must be called from the process's own goroutine, that
// is, from the body passed to Go: while a process is parked its goroutine
// runs the event loop, so a blocking call made for it from an event
// callback or from another process's body would corrupt that loop. park
// checks this and panics.
type Proc struct {
	eng      *Engine
	name     string
	start    func(p *Proc) // the body, until the start event binds it to a worker
	w        *worker       // bound at start, released when the body returns
	parkedAt string        // human-readable blocking site, "" while runnable
	killed   bool
	daemon   bool
	finished bool // body returned or unwound; stale wakeups are dropped
	pollOK   bool // result of the PollUntil that just ended
}

// worker is a reusable goroutine that runs process bodies. When a process
// finishes, its worker goes on driving the event loop until an event
// resumes some other process, then parks on the engine's free list, where
// the next Go reuses goroutine and channel, so process churn does not pay
// goroutine creation. The channel is buffered with capacity one: the baton
// is a single token, and the goroutine passing it never blocks on the send
// — only on the wait for its own next turn.
type worker struct {
	eng    *Engine
	resume chan struct{}
	p      *Proc
	fn     func(*Proc)
}

// SetDaemon marks the process as a background service (an LCP, a daemon,
// a responder loop). Daemon processes parked forever do not count as a
// deadlock: a simulation whose only remaining activity is idle services
// terminates normally.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// procKilled is the panic value used to unwind a killed process.
type procKilled struct{ p *Proc }

// Go spawns a process named name running fn. The process starts at the
// current virtual time, after already-scheduled same-time events. The
// start is an ordinary pooled wake: the body waits on the Proc until the
// event fires (Engine.step hands a never-started process to startProc).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, start: fn}
	e.procs[p] = struct{}{}
	e.postWake(0, p)
	return p
}

// startProc binds a worker to p, hands it the body, and schedules its first
// turn.
func (e *Engine) startProc(p *Proc) {
	fn := p.start
	p.start = nil
	var w *worker
	if n := len(e.freeWorkers); n > 0 {
		w = e.freeWorkers[n-1]
		e.freeWorkers[n-1] = nil
		e.freeWorkers = e.freeWorkers[:n-1]
	} else {
		w = &worker{eng: e, resume: make(chan struct{}, 1)}
		go w.loop()
	}
	w.p = p
	w.fn = fn
	p.w = w
	e.schedule(p)
}

// loop runs process bodies forever. Each iteration is one full process
// lifetime: wait for the baton, run the body (absorbing the kill unwind),
// then — still holding the baton — drive the event loop until it has to
// go to another goroutine, and only then join the free list: a worker on
// the free list must be waiting for its resume token and nothing else.
func (w *worker) loop() {
	e := w.eng
	for {
		<-w.resume
		p := w.p
		w.run()
		p.finished = true
		delete(e.procs, p)
		e.cur = nil
		w.p = nil
		w.fn = nil
		next := e.drive()
		e.freeWorkers = append(e.freeWorkers, w)
		e.pass(next)
	}
}

// run executes the current process body, catching the kill panic for this
// process only. Deferred functions in the body run on the unwind.
func (w *worker) run() {
	p := w.p
	defer func() {
		if r := recover(); r != nil {
			if pk, ok := r.(procKilled); ok && pk.p == p {
				return
			}
			panic(r)
		}
	}()
	w.fn(p)
}

// alive reports whether p has been spawned and not yet finished.
func (e *Engine) alive(p *Proc) bool { return !p.finished }

// schedule notes p as the process the current dispatch resumes: whichever
// goroutine is driving the event loop gives p the CPU as soon as the
// dispatch returns (Engine.dispatch). Every call is therefore the last
// thing its dispatch does, and a dispatch makes at most one. Scheduling a
// finished process is a harmless no-op, so stale wakeups (e.g. a condition
// broadcast racing a Kill) are safe.
func (e *Engine) schedule(p *Proc) {
	if p.finished {
		return
	}
	if e.next != nil {
		panic(fmt.Sprintf("sim: one dispatch resumed both %s and %s", e.next.name, p.name))
	}
	e.next = p
}

// park blocks the process until an event calls e.schedule(p). The parking
// goroutine holds the baton, so it runs the event loop itself (drive). If
// the first process an event resumes is p, park just returns — no
// goroutine switch at all: a lone Sleep, a DMA engine sleeping for its
// transfer time. Otherwise it passes the baton to that process (or, when
// the run is over, to the Run/RunUntil/Step caller) and waits for its own
// turn.
func (p *Proc) park(where string) {
	e := p.eng
	if e.cur != p {
		panic(fmt.Sprintf("sim: process %s blocked (%s) outside its own goroutine: "+
			"Proc methods must be called from the process body, never from an event callback or another process",
			p.name, where))
	}
	p.parkedAt = where
	e.cur = nil
	if next := e.drive(); next == p {
		e.selfResumes++
	} else {
		e.pass(next)
		<-p.w.resume
	}
	if p.killed {
		panic(procKilled{p})
	}
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.eng.postWake(d, p)
	p.park("sleep")
}

// PollEvery parks the process and re-evaluates check every interval of
// virtual time, returning once it reports true. The virtual-time behavior
// is identical to `for !check() { p.Sleep(interval) }` — one event per
// sample, the process resumes at the first sample where the predicate
// holds — but false samples run inside the event callback, so each costs
// a closure call instead of a park and a resume.
//
// Every sample is evaluated, so check may count its calls or read the
// clock. A spin whose predicate is a pure function of model state belongs
// on PollUntil, which skips the samples that cannot see a change;
// PollEvery stays as the reference PollUntil is tested against and for
// probes that time one sample. check runs outside the process context and
// must not call Proc methods or block.
func (p *Proc) PollEvery(interval Time, check func() bool) {
	if check() {
		return
	}
	var fire func()
	fire = func() {
		if !p.eng.alive(p) {
			return // killed and unwound while a sample was pending
		}
		if p.killed || check() {
			p.eng.schedule(p)
			return
		}
		p.eng.postFn(interval, fire)
	}
	p.eng.postFn(interval, fire)
	p.park("poll")
}

// Kill terminates the process the next time it would resume from a park.
// A killed process unwinds via panic/recover; deferred functions run.
// Kill must be called from outside the target process (an event callback
// or another process) while the target is parked or runnable; killing a
// finished process is a no-op.
func (p *Proc) Kill() {
	p.killed = true
	p.eng.pollOwe(p)
	p.eng.postWake(0, p)
}
