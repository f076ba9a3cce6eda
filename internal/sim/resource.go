package sim

import (
	"fmt"

	"repro/internal/trace"
)

// Resource models a unit-capacity resource with FIFO arbitration — a bus,
// a DMA engine, a lock. Processes Acquire it, hold it across virtual time,
// and Release it; contenders queue in arrival order.
type Resource struct {
	eng    *Engine
	name   string
	holder *Proc
	// Waiter FIFO with a moving head, so the backing array is reused
	// once the queue drains and steady-state handoff does not allocate.
	queue []*Proc
	qhead int
	// parkLabel is precomputed so contended Acquire does not allocate.
	parkLabel string
	// accounting
	busySince Time
	busyTotal Time
	acquires  int64
	util      *trace.Utilization // optional metrics observer
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
	if r.holder == nil {
		r.grant(p)
		return
	}
	if r.holder == p {
		panic(fmt.Sprintf("sim: %s re-acquired by holder %s", r.name, p.Name()))
	}
	r.queue = append(r.queue, p)
	r.eng.TraceBegin(r.name, "res", "wait")
	p.park(r.parkLabel)
}

// TryAcquire acquires the resource if it is free, without blocking. It
// reports whether the acquisition succeeded.
func (r *Resource) TryAcquire(p *Proc) bool {
	if r.holder != nil {
		return false
	}
	r.grant(p)
	return true
}

func (r *Resource) grant(p *Proc) {
	r.holder = p
	r.busySince = r.eng.Now()
	r.acquires++
	if r.util != nil {
		r.util.BusyAt(int64(r.busySince))
	}
	r.eng.TraceBegin(r.name, "res", "held")
}

// Release frees the resource and hands it to the next live queued process,
// if any. Only the holder may release. Waiters that died or were killed
// while queued are skipped — granting to one would leak the resource,
// since a killed process unwinds without releasing.
func (r *Resource) Release(p *Proc) {
	if r.holder != p {
		panic(fmt.Sprintf("sim: %s released by %s but held by %v", r.name, p.Name(), holderName(r.holder)))
	}
	r.busyTotal += r.eng.Now() - r.busySince
	r.holder = nil
	if r.util != nil {
		r.util.IdleAt(int64(r.eng.Now()))
	}
	r.eng.TraceEnd(r.name, "res", "held")
	for r.qhead < len(r.queue) {
		next := r.queue[r.qhead]
		r.queue[r.qhead] = nil
		r.qhead++
		if r.qhead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qhead = 0
		}
		if !r.eng.alive(next) || next.killed {
			// The dead waiter's wait span still ends here: emitting the
			// End keeps begin/end pairs matched in FIFO order for
			// streaming consumers.
			r.eng.TraceEnd(r.name, "res", "wait")
			continue
		}
		r.eng.TraceEnd(r.name, "res", "wait")
		r.grant(next)
		r.eng.postWake(0, next)
		return
	}
}

func holderName(p *Proc) string {
	if p == nil {
		return "<none>"
	}
	return p.Name()
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
func (r *Resource) Busy() bool { return r.holder != nil }

// Utilization reports the fraction of virtual time the resource has been
// held, up to the current time.
func (r *Resource) Utilization() float64 {
	now := r.eng.Now()
	if now == 0 {
		return 0
	}
	busy := r.busyTotal
	if r.holder != nil {
		busy += now - r.busySince
	}
	return float64(busy) / float64(now)
}

// Acquires reports how many times the resource has been granted.
func (r *Resource) Acquires() int64 { return r.acquires }
