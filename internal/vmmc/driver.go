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

	// Names of the service processes and the trace component, built once:
	// an interrupt arrives for every notifying message.
	notifyName, tlbMissName, comp string
}

func newDriver(n *Node) *Driver {
	m := n.Eng.Metrics()
	return &Driver{
		node:        n,
		mRefills:    m.Counter(fmt.Sprintf("node%d/tlb_refills", n.ID)),
		mLocked:     m.Counter(fmt.Sprintf("node%d/pages_locked", n.ID)),
		mNotify:     m.Counter(fmt.Sprintf("node%d/notifications_delivered", n.ID)),
		notifyName:  fmt.Sprintf("driver%d:notify", n.ID),
		tlbMissName: fmt.Sprintf("driver%d:tlbmiss", n.ID),
		comp:        fmt.Sprintf("node%d/driver", n.ID),
	}
}

// Interrupt causes raised by the LCP.

// tlbMissIRQ asks the driver to install translations for pid's pages
// starting at vpage; done is invoked once the SRAM TLB has been updated.
type tlbMissIRQ struct {
	pid   int
	vpage uint64
	done  func(err error)
}

// notifyIRQ delivers a notification: the message targeting (pid, tag)
// finished arriving at the given buffer offset, sent by from.
type notifyIRQ struct {
	pid    int
	tag    uint32
	offset int
	length int
	from   ProcID
}

// handleInterrupt runs in event context when the board asserts its
// interrupt line; the actual service work runs as a short-lived host
// process that pays the interrupt entry cost.
func (d *Driver) handleInterrupt(cause any) {
	n := d.node
	if n.crashed {
		// A dead host services nothing; in-flight interrupts at the
		// crash instant are simply lost.
		return
	}
	switch irq := cause.(type) {
	case tlbMissIRQ:
		n.Eng.Go(d.tlbMissName, func(p *simProc) {
			n.Eng.TraceBegin(d.comp, "irq", "tlb_refill")
			p.Sleep(n.Prof.InterruptCost)
			err := d.refillTLB(p, irq.pid, irq.vpage)
			n.Eng.TraceEnd(d.comp, "irq", "tlb_refill")
			irq.done(err)
		})
	case notifyIRQ:
		n.Eng.Go(d.notifyName, func(p *simProc) {
			p.Sleep(n.Prof.InterruptCost)
			d.deliverNotification(p, irq)
		})
	default:
		panic(fmt.Errorf("driver%d: unknown interrupt %T", n.ID, cause))
	}
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

// deliverNotification invokes the user-level handler attached to the
// export, via a signal (§4.1, §5.1: "code that invokes notifications using
// signals").
func (d *Driver) deliverNotification(p *simProc, irq notifyIRQ) {
	n := d.node
	proc, ok := n.procs[irq.pid]
	if !ok {
		return // process exited; drop, as a signal to a dead pid would
	}
	h, ok := proc.handlers[irq.tag]
	if !ok {
		return
	}
	p.Sleep(n.Prof.SignalCost)
	d.mNotify.Add(1)
	n.Eng.TraceInstant(d.comp, "irq", "notification_signal")
	h(p, irq.from, irq.tag, irq.offset, irq.length)
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
