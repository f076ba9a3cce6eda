package sim

// Cond is a condition variable for simulation processes. Unlike sync.Cond
// there is no associated lock: model state is already serialized by the
// engine. The usual pattern still applies — re-check the guarded predicate
// in a loop around Wait, since another process may run between the signal
// and the wakeup.
//
// Waiters form an intrusive doubly-linked list, so a timeout withdrawing
// from the middle (the dominant case under retransmit-timer churn) is
// O(1) instead of a scan of every parked process. Waiter records are
// pooled on the engine; a full wait/wake or wait/timeout cycle performs
// no allocation.
//
// Work that has no stack of its own to park — a DMA engine draining a
// queue — waits as a continuation instead (Waiter, WaitFn): in the same
// FIFO as the processes, woken by the same Signal, but what resumes is a
// callback in event context, so the wait costs no goroutine and no
// handoff.
type Cond struct {
	eng        *Engine
	head, tail *condWaiter
	n          int
}

type condWaiter struct {
	p          *Proc
	cont       *Waiter // the continuation waiting here, nil for a process
	c          *Cond   // owning condition, for timeout dispatch
	woken      bool
	timeout    *Event // pending timeout, nil for plain Wait
	prev, next *condWaiter
	linked     bool
}

// dead reports a process waiter killed or finished while enlisted. A
// continuation is never dead in the list: Cancel takes it out.
func (w *condWaiter) dead() bool {
	return w.cont == nil && (w.p.finished || w.p.killed)
}

// A Waiter is a continuation that waits on a Cond in a process's place.
// WaitFn enlists it at the tail of the FIFO the processes wait in; a
// Signal or Broadcast that reaches it posts the zero-delay event that would
// have resumed a process there, and fn runs from that event. It waits once
// per WaitFn, and its owner keeps the one Waiter for every wait, so waiting
// allocates nothing.
type Waiter struct {
	rec  condWaiter
	fire func()
	wake *Event // posted by the Signal that reached it, until it fires
}

// NewWaiter returns a continuation waiter that runs fn when woken.
func NewWaiter(fn func()) *Waiter {
	w := new(Waiter)
	w.rec.cont = w
	w.fire = func() {
		w.wake = nil
		fn()
	}
	return w
}

// Cancel withdraws w: from the wait list while it is still there, or, once
// a Signal has reached it, by cancelling the wake before fn runs — that
// signal is spent, as it is on a process killed after being woken.
// Cancelling a waiter that is not waiting does nothing.
func (w *Waiter) Cancel() {
	if w.rec.linked {
		w.rec.c.unlink(&w.rec)
	}
	if w.wake != nil {
		w.wake.Cancel()
		w.wake = nil
	}
}

// NewCond returns a condition variable bound to eng.
func NewCond(eng *Engine) *Cond { return &Cond{eng: eng} }

// getWaiter draws a waiter record from the engine pool.
func (e *Engine) getWaiter(p *Proc) *condWaiter {
	if n := len(e.freeWaiters); n > 0 {
		w := e.freeWaiters[n-1]
		e.freeWaiters[n-1] = nil
		e.freeWaiters = e.freeWaiters[:n-1]
		*w = condWaiter{p: p}
		return w
	}
	return &condWaiter{p: p}
}

// pushBack appends w to the wait list (FIFO wake order).
func (c *Cond) pushBack(w *condWaiter) {
	w.c = c
	w.prev = c.tail
	w.next = nil
	if c.tail != nil {
		c.tail.next = w
	} else {
		c.head = w
	}
	c.tail = w
	w.linked = true
	c.n++
}

// unlink removes w from the wait list in O(1).
func (c *Cond) unlink(w *condWaiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		c.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		c.tail = w.prev
	}
	w.prev = nil
	w.next = nil
	w.linked = false
	c.n--
}

// finish is the single teardown path for a wait, reached on normal return
// AND on the kill-panic unwind of the waiting process. It cancels a still-
// pending timeout, withdraws the waiter if it is still enlisted (a killed
// process parked here would otherwise leak its record forever), and
// returns the record to the pool.
func (c *Cond) finish(w *condWaiter) {
	if w.timeout != nil {
		w.timeout.Cancel()
		w.timeout = nil
	}
	if w.linked {
		c.unlink(w)
	}
	c.eng.freeWaiters = append(c.eng.freeWaiters, w)
}

// Wait parks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	w := c.eng.getWaiter(p)
	c.pushBack(w)
	defer c.finish(w)
	p.park("cond wait")
}

// WaitFn is Wait for a continuation: w waits its turn among the processes
// and, when a Signal or Broadcast reaches it, runs from the event that
// would have resumed a process in its place. Enlisting a waiter that is
// still waiting panics.
func (c *Cond) WaitFn(w *Waiter) {
	if w.rec.linked || w.wake != nil {
		panic("sim: continuation waiter enlisted while still waiting")
	}
	c.pushBack(&w.rec)
}

// WaitTimeout parks p until woken or until d elapses. It reports true if
// the process was woken by Signal/Broadcast and false on timeout.
func (c *Cond) WaitTimeout(p *Proc, d Time) bool {
	w := c.eng.getWaiter(p)
	w.timeout = c.eng.postTimeout(d, w)
	c.pushBack(w)
	defer c.finish(w)
	p.park("cond wait (timeout)")
	return w.woken
}

// expire is the timeout event's dispatch: the waiter withdraws and its
// process resumes with woken=false. Called by the engine.
func (c *Cond) expire(w *condWaiter) {
	w.timeout = nil
	if w.linked {
		c.unlink(w)
	}
	c.eng.schedule(w.p)
}

// Signal wakes the longest-waiting live process or continuation, if any.
// The wakeup is scheduled at the current time; the woken process runs
// after the caller parks or the current event returns. Waiters that died
// (killed while parked here) are discarded so they cannot swallow the
// signal; their kill unwind releases their records independently.
func (c *Cond) Signal() {
	for c.head != nil {
		w := c.head
		c.unlink(w)
		if w.dead() {
			continue
		}
		c.wake(w)
		return
	}
}

// Broadcast wakes all live waiters in FIFO order.
func (c *Cond) Broadcast() {
	for c.head != nil {
		w := c.head
		c.unlink(w)
		if !w.dead() {
			c.wake(w)
		}
	}
}

func (c *Cond) wake(w *condWaiter) {
	if k := w.cont; k != nil {
		k.wake = c.eng.postFn(0, k.fire)
		return
	}
	w.woken = true
	if w.timeout != nil {
		w.timeout.Cancel()
		w.timeout = nil
	}
	c.eng.postWake(0, w.p)
}
