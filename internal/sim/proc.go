package sim

// Proc is a goroutine-backed simulation process. A process runs model code
// sequentially in virtual time, blocking on Sleep, conditions, resources
// and queues. The engine guarantees at most one process (or event callback)
// executes at any real-time instant, so model state needs no locking.
//
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	eng      *Engine
	name     string
	w        *worker // bound at spawn, released when the body returns
	parkedAt string  // human-readable blocking site, "" while runnable
	killed   bool
	daemon   bool
	poll     *poller // PollUntil state, allocated on the first spin
}

// worker is a reusable goroutine that runs process bodies. When a process
// finishes, its worker (goroutine and both handoff channels) parks on the
// engine's free list and the next Go reuses it, so process churn does not
// pay goroutine creation. The channels are buffered with capacity one:
// the handoff is a single token in each direction, and the sender never
// blocks — only the side waiting for the CPU does.
type worker struct {
	resume chan struct{}
	parked chan bool // true = process body finished
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
// current virtual time, after already-scheduled same-time events.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.procs[p] = struct{}{}
	e.postFn(0, func() { e.startProc(p, fn) })
	return p
}

// startProc binds a worker to p and hands it the CPU for the first time.
func (e *Engine) startProc(p *Proc, fn func(p *Proc)) {
	var w *worker
	if n := len(e.freeWorkers); n > 0 {
		w = e.freeWorkers[n-1]
		e.freeWorkers[n-1] = nil
		e.freeWorkers = e.freeWorkers[:n-1]
	} else {
		w = &worker{
			resume: make(chan struct{}, 1),
			parked: make(chan bool, 1),
		}
		go w.loop()
	}
	w.p = p
	w.fn = fn
	p.w = w
	e.schedule(p)
}

// loop runs process bodies forever. Each iteration is one full process
// lifetime: wait for the first schedule, run the body (absorbing the kill
// unwind), then report completion and go back to the free list.
func (w *worker) loop() {
	for {
		<-w.resume
		w.run()
		w.parked <- true
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
func (e *Engine) alive(p *Proc) bool {
	_, ok := e.procs[p]
	return ok
}

// schedule hands the CPU to p and waits until it parks or finishes.
// Called only from the engine goroutine (inside an event callback).
// Scheduling a finished process is a harmless no-op, so stale wakeups
// (e.g. a condition broadcast racing a Kill) are safe.
func (e *Engine) schedule(p *Proc) {
	if _, live := e.procs[p]; !live {
		return
	}
	p.parkedAt = ""
	w := p.w
	w.resume <- struct{}{}
	if done := <-w.parked; done {
		delete(e.procs, p)
		w.p = nil
		w.fn = nil
		e.freeWorkers = append(e.freeWorkers, w)
	}
}

// park blocks the process until another event calls e.schedule(p).
func (p *Proc) park(where string) {
	p.parkedAt = where
	w := p.w
	w.parked <- false
	<-w.resume
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

// Yield reschedules the process at the current time, letting other
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// PollEvery parks the process and re-evaluates check every interval of
// virtual time, returning once it reports true. The virtual-time behavior
// is identical to `for !check() { p.Sleep(interval) }` — one event per
// sample, the process resumes at the first sample where the predicate
// holds — but false samples run inside the event callback on the engine
// goroutine, so each costs a closure call instead of the park/resume
// goroutine round trip.
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
	p.eng.postWake(0, p)
}

// Tracef emits an engine trace line tagged with the process name.
func (p *Proc) Tracef(format string, args ...any) {
	p.eng.Tracef("["+p.name+"] "+format, args...)
}
