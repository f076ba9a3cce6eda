package vmmc

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Driver is the kernel-loadable VMMC device driver (§4.1, §5.1): the only
// kernel-resident piece of the system. It translates virtual to physical
// addresses for pinned pages, locks and unlocks pages, refills the LANai
// software TLB when the LCP raises a miss interrupt, and delivers
// notifications to user processes with signals.
type Driver struct {
	node *Node

	// TLB refill interrupts served, pages they locked, and notifications
	// delivered.
	mRefills, mLocked, mNotify *trace.Counter

	// Names of the TLB refill process and the trace component, built
	// once: an interrupt arrives for every notifying message.
	tlbMissName, comp string

	freeIRQ []*notifyIRQ // notification records not in flight
}

func newDriver(n *Node) *Driver {
	m := n.Eng.Metrics()
	return &Driver{
		node:        n,
		mRefills:    m.Counter(fmt.Sprintf("node%d/tlb_refills", n.ID)),
		mLocked:     m.Counter(fmt.Sprintf("node%d/pages_locked", n.ID)),
		mNotify:     m.Counter(fmt.Sprintf("node%d/notifications_delivered", n.ID)),
		tlbMissName: fmt.Sprintf("driver%d:tlbmiss", n.ID),
		comp:        fmt.Sprintf("node%d/driver", n.ID),
	}
}

// tlbMiss raises the board's interrupt for a TLB miss: the driver installs
// translations for pid's pages starting at vpage, in a service process that
// pays the interrupt entry cost, and then calls done. Misses are rare, so
// the closures are built per miss.
func (d *Driver) tlbMiss(pid int, vpage uint64, done func(err error)) {
	n := d.node
	n.Board.RaiseInterrupt("vmmc.tlbMissIRQ", func() {
		if n.crashed {
			// A dead host services nothing; in-flight interrupts at the
			// crash instant are simply lost.
			return
		}
		n.Eng.Go(d.tlbMissName, func(p *simProc) {
			n.Eng.TraceBegin(d.comp, "irq", "tlb_refill")
			p.Sleep(n.Prof.InterruptCost)
			err := d.refillTLB(p, pid, vpage)
			n.Eng.TraceEnd(d.comp, "irq", "tlb_refill")
			done(err)
		})
	})
}

// notifyIRQ is one notification on its way from the LANai's interrupt to
// the owner's handler, delivered with a signal (§4.1, §5.1: "code that
// invokes notifications using signals"): the message targeting (pid, tag)
// finished arriving at the given buffer offset, sent by from. Each step is
// an event on the engine, the handler's included, so handlers of one
// process never overlap and run in arrival order. The steps are bound
// once and the records recycled through the driver's free list.
type notifyIRQ struct {
	d      *Driver
	pid    int
	tag    uint32
	offset int
	length int
	from   ProcID

	// Set by lookup for the signal step.
	proc *Process
	h    NotifyHandler

	raise, enter, lookup, signal func()
}

// notify raises the board's interrupt for a notification.
func (d *Driver) notify(pid int, tag uint32, offset, length int, from ProcID) {
	var irq *notifyIRQ
	if k := len(d.freeIRQ); k > 0 {
		irq = d.freeIRQ[k-1]
		d.freeIRQ = d.freeIRQ[:k-1]
	} else {
		irq = &notifyIRQ{d: d}
		irq.raise, irq.enter, irq.lookup, irq.signal = irq.raiseStep, irq.enterStep, irq.lookupStep, irq.signalStep
	}
	irq.pid, irq.tag, irq.offset, irq.length, irq.from = pid, tag, offset, length, from
	d.node.Board.RaiseInterrupt("vmmc.notifyIRQ", irq.raise)
}

// release returns the record to the free list.
func (irq *notifyIRQ) release() {
	irq.proc, irq.h = nil, nil
	irq.d.freeIRQ = append(irq.d.freeIRQ, irq)
}

// raiseStep is the interrupt line: a dead host services nothing, and
// in-flight interrupts at the crash instant are simply lost.
func (irq *notifyIRQ) raiseStep() {
	if irq.d.node.crashed {
		irq.release()
		return
	}
	irq.d.node.Eng.Post(0, irq.enter)
}

// enterStep takes the interrupt into the kernel, one event after the line
// was raised, and pays the entry cost.
func (irq *notifyIRQ) enterStep() {
	irq.d.node.Eng.Post(irq.d.node.Prof.InterruptCost, irq.lookup)
}

// lookupStep finds the owner and its handler, and sends the signal.
func (irq *notifyIRQ) lookupStep() {
	n := irq.d.node
	proc, ok := n.procs[irq.pid]
	if !ok {
		irq.release() // process exited; drop, as a signal to a dead pid would
		return
	}
	if irq.h, ok = proc.handlers[irq.tag]; !ok {
		irq.release()
		return
	}
	irq.proc = proc
	n.Eng.Post(n.Prof.SignalCost, irq.signal)
}

// signalStep runs the handler once the signal has been delivered. A
// process killed, or a node crashed, while the signal was on its way gets
// nothing.
func (irq *notifyIRQ) signalStep() {
	d, proc, h := irq.d, irq.proc, irq.h
	from, tag, offset, length := irq.from, irq.tag, irq.offset, irq.length
	irq.release()
	if proc.dead {
		return
	}
	d.mNotify.Add(1)
	d.node.Eng.TraceInstant(d.comp, "irq", "notification_signal")
	h(from, tag, offset, length)
}

// refillTLB installs up to TLBRefillBatch translations for contiguous
// pages starting at vpage, locking each page in memory (§4.5: "Send pages
// are locked in memory by the VMMC driver when it provides the
// translations"). Pages evicted from the TLB by the refill are unlocked.
func (d *Driver) refillTLB(p *simProc, pid int, vpage uint64) error {
	n := d.node
	proc, ok := n.procs[pid]
	if !ok {
		return fmt.Errorf("driver%d: tlb miss for unknown pid %d", n.ID, pid)
	}
	st := proc.lcpState
	inserted := 0
	for i := 0; i < TLBRefillBatch; i++ {
		vp := vpage + uint64(i)
		pa, err := proc.AS.Translate(mem.VirtAddr(vp) << mem.PageShift)
		if err != nil {
			break // ran past the mapped region; partial refill is fine
		}
		p.Sleep(n.Prof.TranslationCost)
		if _, hit := st.tlb.Lookup(vp); hit {
			continue // another refill raced this one
		}
		st.chargePin(1)
		n.Phys.Pin(pa.Frame())
		d.mLocked.Add(1)
		if oldVP, oldFrame, evicted := st.tlb.Insert(vp, pa.Frame()); evicted {
			_ = oldVP
			n.Phys.Unpin(oldFrame)
			st.releasePin(1)
		}
		inserted++
	}
	d.mRefills.Add(1)
	if inserted == 0 {
		return fmt.Errorf("driver%d: tlb miss on unmapped va page %#x (pid %d)", n.ID, vpage, pid)
	}
	return nil
}

// translateAndLock is the driver service used by the daemon at export
// time: translate every page of [va, va+n) in proc's space and lock it.
// The span is counted against the process only once every page is locked,
// so a failure leaves nothing pinned or counted.
func (d *Driver) translateAndLock(proc *Process, va mem.VirtAddr, n int) ([]int, error) {
	span := mem.PageSpan(va, n)
	frames := make([]int, 0, span)
	for i := 0; i < span; i++ {
		pa, err := proc.AS.Translate(va + mem.VirtAddr(i*mem.PageSize))
		if err != nil {
			for _, f := range frames {
				d.node.Phys.Unpin(f)
			}
			return nil, err
		}
		d.node.Phys.Pin(pa.Frame())
		frames = append(frames, pa.Frame())
	}
	proc.lcpState.chargePin(span)
	return frames, nil
}

// unlock releases frames locked by translateAndLock on st's behalf.
func (d *Driver) unlock(st *lcpProcState, frames []int) {
	for _, f := range frames {
		d.node.Phys.Unpin(f)
	}
	st.releasePin(len(frames))
}
