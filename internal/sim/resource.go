package sim

import (
	"fmt"

	"repro/internal/trace"
)

// Resource models a unit-capacity resource with FIFO arbitration — a bus,
// a DMA engine, a lock. Processes Acquire it, hold it across virtual time,
// and Release it; contenders queue in arrival order.
//
// Work that never needs a stack of its own — a DMA engine moving one
// burst is a timed transaction with a completion, not a thread — claims
// the resource as a continuation instead (AcquireFn, ReleaseFn): it waits
// in the same queue as the processes and is granted in the same order,
// but what resumes is a callback in event context, so the claim costs no
// goroutine and no handoff.
type Resource struct {
	eng    *Engine
	name   string
	holder waiter
	// Waiter FIFO with a moving head, so the backing array is reused
	// once the queue drains and steady-state handoff does not allocate.
	queue []waiter
	qhead int
	// parkLabel is precomputed so contended Acquire does not allocate.
	parkLabel string
	// accounting
	busySince Time
	busyTotal Time
	acquires  int64
	util      *trace.Utilization // optional metrics observer
}

// waiter is one claim on a resource, queued or holding: a process, or a
// continuation — no process, a label that names it in diagnostics the way
// a process name would, and the callback a grant resumes. The zero value
// is no claim at all.
type waiter struct {
	p       *Proc
	label   string
	granted func()
}

func (w waiter) String() string {
	switch {
	case w.p != nil:
		return w.p.Name()
	case w.granted != nil:
		return w.label + " (continuation)"
	}
	return "<none>"
}

// NewResource returns an idle resource named name.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name, parkLabel: "acquire " + name}
}

// Observe attaches a metrics utilization tracker: the resource marks it
// busy on every grant and idle on every release, so a snapshot reports the
// fraction of virtual time the resource was held.
func (r *Resource) Observe(u *trace.Utilization) { r.util = u }

// Acquire blocks p until it holds the resource.
func (r *Resource) Acquire(p *Proc) {
	if !r.Busy() {
		r.grant(waiter{p: p})
		return
	}
	if r.holder.p == p {
		panic(fmt.Sprintf("sim: %s re-acquired by holder %s", r.name, p.Name()))
	}
	r.enqueue(waiter{p: p})
	p.park(r.parkLabel)
}

// AcquireFn is Acquire for a continuation: granted runs, in event context,
// once the claim holds the resource — before AcquireFn returns when the
// resource is free, otherwise from the zero-delay event a contended
// Release posts, which is the event that would have resumed a process
// queued in its place. label names the claim while it waits and holds;
// ReleaseFn with the same label ends it. Neither step allocates, so a
// caller that keeps its callbacks bound pays nothing per claim.
func (r *Resource) AcquireFn(label string, granted func()) {
	w := waiter{label: label, granted: granted}
	if r.Busy() {
		r.enqueue(w)
		return
	}
	r.grant(w)
	granted()
}

func (r *Resource) enqueue(w waiter) {
	r.queue = append(r.queue, w)
	r.eng.TraceBegin(r.name, "res", "wait")
}

func (r *Resource) grant(w waiter) {
	r.holder = w
	r.busySince = r.eng.Now()
	r.acquires++
	if r.util != nil {
		r.util.BusyAt(int64(r.busySince))
	}
	r.eng.TraceBegin(r.name, "res", "held")
}

// Release frees the resource and hands it to the next live queued claim,
// if any. Only the holder may release. Waiters that died or were killed
// while queued are skipped — granting to one would leak the resource,
// since a killed process unwinds without releasing.
func (r *Resource) Release(p *Proc) {
	if r.holder.p != p {
		panic(fmt.Sprintf("sim: %s released by %s but held by %v", r.name, p.Name(), r.holder))
	}
	r.release()
}

// ReleaseFn is Release for the continuation that acquired as label.
func (r *Resource) ReleaseFn(label string) {
	if r.holder.granted == nil || r.holder.label != label {
		panic(fmt.Sprintf("sim: %s released by continuation %s but held by %v", r.name, label, r.holder))
	}
	r.release()
}

func (r *Resource) release() {
	r.busyTotal += r.eng.Now() - r.busySince
	r.holder = waiter{}
	if r.util != nil {
		r.util.IdleAt(int64(r.eng.Now()))
	}
	r.eng.TraceEnd(r.name, "res", "held")
	for r.qhead < len(r.queue) {
		next := r.queue[r.qhead]
		r.queue[r.qhead] = waiter{}
		r.qhead++
		if r.qhead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qhead = 0
		}
		// A dead waiter's wait span ends here too: emitting the End keeps
		// begin/end pairs matched in FIFO order for streaming consumers.
		r.eng.TraceEnd(r.name, "res", "wait")
		switch {
		case next.p == nil:
			// A continuation cannot die in the queue. Its callback runs
			// from the event a process would have been woken by.
			r.grant(next)
			r.eng.postFn(0, next.granted)
			return
		case r.eng.alive(next.p) && !next.p.killed:
			r.grant(next)
			r.eng.postWake(0, next.p)
			return
		}
	}
}

// Use acquires the resource, holds it for duration d, and releases it.
// This is the common pattern for charging bus or engine occupancy. The
// release is deferred so that a process killed mid-hold (a crashing
// node's LCP, say) still frees the resource on its unwind instead of
// wedging every later contender.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	defer r.Release(p)
	p.Sleep(d)
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.holder.p != nil || r.holder.granted != nil }

// Utilization reports the fraction of virtual time the resource has been
// held, up to the current time.
func (r *Resource) Utilization() float64 {
	now := r.eng.Now()
	if now == 0 {
		return 0
	}
	busy := r.busyTotal
	if r.Busy() {
		busy += now - r.busySince
	}
	return float64(busy) / float64(now)
}
