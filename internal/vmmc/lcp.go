package vmmc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LCP is the VMMC LANai control program (§4): the software state machine
// running on the board's single 33 MHz processor. It picks up send
// requests from per-process send queues, translates send-buffer addresses
// through per-process software TLBs, chunks and pipelines long messages,
// injects packets with precomputed scatter headers, and on the receive
// side deposits arriving chunks directly into pinned receive buffers
// without interrupting the host CPU.
//
// All LCP work is serialized on one simulation process, mirroring the
// single LANai: a long send in progress delays receive handling and vice
// versa — which is exactly why bidirectional traffic loses the tight
// sending loop and some bandwidth (§5.3).
type LCP struct {
	node   *Node
	routes myrinet.RouteTable

	incoming *IncomingTable
	states   map[int]*lcpProcState
	scan     []int // pids in queue-scan order
	scanPtr  int

	work *sim.Cond
	rxq  []rxItem

	// job is the long send in progress, nil when none is: the paper's
	// design point of one long send per interface (§6), whatever the
	// traffic classes. A job whose class is in pacing deficit is not
	// stepped; while the board paces traffic, other processes' queued
	// shorts are served between its chunks (serveShortPreempt), and
	// every long send, any class's, waits for it to finish.
	job *sendJob
	// idleJob is the last retired long-send record, kept for the next
	// startLong with its DMA steps bound and its staged array.
	idleJob *sendJob

	// stagingFree lists the SRAM staging buffers not currently held by
	// a staged or in-flight chunk; jobs draw from it LIFO.
	stagingFree []int

	// Transfer redirection (redirect.go): active redirections by export
	// tag, and the per-export arrival high-water mark used to size the
	// early-arrival copy of a late posting.
	redirects map[uint32]*redirectRec
	arrivedHW map[uint32]int

	// SRAM regions.
	codeOff    int
	stagingOff [2]int // double buffer for long-send chunks
	recvOff    int    // receive staging
	scratchOff int    // 8-byte completion scratch

	// The board's receive engine feeding rxq, and the LCP's own process;
	// both end at node crash.
	rx       *lanai.Receiver
	mainProc *simProc

	// comp is the trace component name ("node<id>/lcp"); m holds the
	// always-on metrics counters.
	comp string
	m    lcpMetrics
	// dmaLabel names a chunk's host DMA as the holder of the engine and the
	// PCI bus; failProcName the process a failed TLB refill starts for its
	// completion write.
	dmaLabel, failProcName string
}

// lcpMetrics are the LCP's registry counters, resolved once at boot so the
// hot paths update them without map lookups.
type lcpMetrics struct {
	sendsShort, sendsLong *trace.Counter
	tightIters, mainIters *trace.Counter
	crcErrors, protViol   *trace.Counter
	tlbHits, tlbMisses    *trace.Counter
	tlbMissStalls         *trace.Counter
	notifyRequested       *trace.Counter
	shortPreempts         *trace.Counter
	packetsOut, packetsIn *trace.Counter
	bytesOut, bytesIn     *trace.Counter
}

func newLCPMetrics(r *trace.Registry, nodeID int) lcpMetrics {
	c := func(name string) *trace.Counter {
		return r.Counter(fmt.Sprintf("node%d/%s", nodeID, name))
	}
	return lcpMetrics{
		sendsShort:      c("lcp_sends_short"),
		sendsLong:       c("lcp_sends_long"),
		tightIters:      c("lcp_tight_loop_iterations"),
		mainIters:       c("lcp_main_loop_iterations"),
		crcErrors:       c("lcp_crc_errors"),
		protViol:        c("lcp_protection_violations"),
		tlbHits:         c("tlb_hits"),
		tlbMisses:       c("tlb_misses"),
		tlbMissStalls:   c("tlb_miss_stalls"),
		notifyRequested: c("lcp_notifications_requested"),
		shortPreempts:   c("lcp_short_preempts"),
		packetsOut:      c("lcp_packets_out"),
		packetsIn:       c("lcp_packets_in"),
		bytesOut:        c("lcp_bytes_out"),
		bytesIn:         c("lcp_bytes_in"),
	}
}

// rxItem is an arrived packet after link-layer filtering: data is the
// VMMC-visible payload (identical to pk.Payload unless the optional
// reliability layer unwrapped it).
type rxItem struct {
	data []byte
	pk   *myrinet.Packet
}

// lcpProcState is the per-process state the interface keeps in SRAM: the
// send queue, the outgoing page table and the software TLB (§4.4-4.5).
type lcpProcState struct {
	node     int
	pid      int
	sq       *SendQueue
	outPT    *OutgoingTable
	tlb      *TLB
	statusPA mem.PhysAddr

	// limits are the process's admission-time resource partitions; the
	// zero value means the legacy first-come-first-served defaults.
	limits ProcLimits
	// pins counts host frames currently locked on the process's behalf
	// (TLB entries and export locks).
	pins int
	// gone marks a process killed mid-flight: its status page is
	// unpinned and its SRAM state is about to vanish, so completion
	// writes and staged work for it must be dropped, not delivered.
	gone bool
}

// chargePin counts k more frames locked on the process's behalf.
func (st *lcpProcState) chargePin(k int) { st.pins += k }

// releasePin uncounts k frames. Releasing more than the process holds is
// a double release; clamping it to zero would read as a clean teardown in
// PinnedFrames, tenant pinned_frames and the leak baseline — the very
// checks that should catch it — so it panics instead.
func (st *lcpProcState) releasePin(k int) {
	st.pins -= k
	if st.pins < 0 {
		panic(fmt.Sprintf("vmmc: node %d pid %d released %d pinned frames it did not hold",
			st.node, st.pid, -st.pins))
	}
}

// lcpCodeBytes reserves SRAM for the control program text, static data and
// the routing tables extracted from the mapping LCP.
const lcpCodeBytes = 48 << 10

// Completion error codes written to the status word.
const (
	ceOK = iota
	ceNotImported
	ceOutOfRange
	ceNoRoute
	ceBadSource
	ceUnreachable
)

func completionError(code uint32) error {
	switch code {
	case ceOK:
		return nil
	case ceNotImported:
		return ErrNotImported
	case ceOutOfRange:
		return ErrOutOfRange
	case ceNoRoute:
		return fmt.Errorf("vmmc: no route to destination node")
	case ceBadSource:
		return ErrBadBuffer
	case ceUnreachable:
		return ErrNodeUnreachable
	default:
		return fmt.Errorf("vmmc: unknown completion error %d", code)
	}
}

func newLCP(n *Node, routes myrinet.RouteTable) (*LCP, error) {
	l := &LCP{
		node:      n,
		routes:    routes,
		states:    make(map[int]*lcpProcState),
		work:      sim.NewCond(n.Eng),
		redirects: make(map[uint32]*redirectRec),
		arrivedHW: make(map[uint32]int),
		comp:      fmt.Sprintf("node%d/lcp", n.ID),
		m:         newLCPMetrics(n.Eng.Metrics(), n.ID),

		dmaLabel:     fmt.Sprintf("lcp:%d:hostdma", n.ID),
		failProcName: fmt.Sprintf("lcp:%d:fail", n.ID),
	}
	sram := n.Board.SRAM
	var err error
	if l.codeOff, err = sram.Alloc(lcpCodeBytes, "lcp-code"); err != nil {
		return nil, err
	}
	if l.incoming, err = newIncomingTable(sram, n.Phys.NumFrames()); err != nil {
		return nil, err
	}
	for i := range l.stagingOff {
		if l.stagingOff[i], err = sram.Alloc(mem.PageSize, "staging-send"); err != nil {
			return nil, err
		}
	}
	// LIFO order with buffer 0 on top, so a lone job alternates 0,1,0,1
	// exactly as the historical double-buffer index did.
	l.stagingFree = []int{l.stagingOff[1], l.stagingOff[0]}
	if l.recvOff, err = sram.Alloc(mem.PageSize, "staging-recv"); err != nil {
		return nil, err
	}
	if l.scratchOff, err = sram.Alloc(8, "completion-scratch"); err != nil {
		return nil, err
	}

	// The receive engine drains arriving packets into SRAM autonomously
	// (the net-to-SRAM DMA engine runs concurrently with the LANai CPU,
	// §3), then hands them to the LCP.
	l.rx = n.Board.StartReceiver(fmt.Sprintf("lcp:%d:rx", n.ID), l.arrive)
	l.mainProc = n.Eng.Go(fmt.Sprintf("lcp:%d", n.ID), func(p *simProc) {
		p.SetDaemon(true)
		l.run(p)
	})
	return l, nil
}

// arrive queues a packet the receive engine passed up and rings the work
// flag.
func (l *LCP) arrive(data []byte, pk *myrinet.Packet) {
	l.rxq = append(l.rxq, rxItem{data: data, pk: pk})
	l.work.Signal()
}

// teardown stops the receive engine, kills the LCP's process and releases
// its own SRAM — the crash path, after every process has given its carve
// back (Process.release). A restarted node builds a fresh LCP from
// scratch; nothing of this one survives.
func (l *LCP) teardown() {
	l.rx.Stop()
	l.mainProc.Kill()
	sram := l.node.Board.SRAM
	sram.Free(l.codeOff)
	sram.Free(l.incoming.sramOff)
	for _, off := range l.stagingOff {
		sram.Free(off)
	}
	sram.Free(l.recvOff)
	sram.Free(l.scratchOff)
	l.job = nil
	l.stagingFree = nil
	l.rxq = nil
	l.redirects = make(map[uint32]*redirectRec)
	l.arrivedHW = make(map[uint32]int)
}

// registerProcess carves the per-process SRAM state out of the board,
// sized by the process's resource partition (zero-value limits give the
// legacy defaults). Every allocation rolls back on failure so a rejected
// registration leaks nothing.
func (l *LCP) registerProcess(pid int, limits ProcLimits) (*lcpProcState, error) {
	sram := l.node.Board.SRAM
	sq, err := newSendQueue(sram, pid, limits.SendQueueEntries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProcessLimit, err)
	}
	outPT, err := newOutgoingTable(sram, pid)
	if err != nil {
		sram.Free(sq.sramOff)
		return nil, fmt.Errorf("%w: %v", ErrProcessLimit, err)
	}
	tlb, err := newTLB(sram, pid, limits.TLBEntries)
	if err != nil {
		sram.Free(sq.sramOff)
		sram.Free(outPT.sramOff)
		return nil, fmt.Errorf("%w: %v", ErrProcessLimit, err)
	}
	st := &lcpProcState{node: l.node.ID, pid: pid, sq: sq, outPT: outPT, tlb: tlb, limits: limits}
	l.states[pid] = st
	l.scan = append(l.scan, pid)
	return st, nil
}

func (l *LCP) unregisterProcess(pid int) {
	st, ok := l.states[pid]
	if !ok {
		return
	}
	sram := l.node.Board.SRAM
	sram.Free(st.sq.sramOff)
	sram.Free(st.outPT.sramOff)
	sram.Free(st.tlb.sramOff)
	delete(l.states, pid)
	for i, id := range l.scan {
		if id == pid {
			l.scan = append(l.scan[:i], l.scan[i+1:]...)
			break
		}
	}
	if l.scanPtr >= len(l.scan) {
		l.scanPtr = 0
	}
}

// doorbell is rung by the library after posting a send request.
func (l *LCP) doorbell() { l.work.Signal() }

// Routes returns a copy of the route currently installed toward dst, nil
// when none is. Boot installs the mapper's tables; with healing on, the
// self-healing layer may hot-swap entries afterwards. Observability
// helpers (the healsweep picks its victim spine off the live route) read
// it; the data path stays on the private table.
func (l *LCP) Routes(dst int) []byte {
	r, ok := l.routes[dst]
	if !ok {
		return nil
	}
	return append([]byte(nil), r...)
}

// classEligible reports whether an injection in the class may commit
// now; when it may not, at is the earliest eligibility instant.
func (l *LCP) classEligible(class int) (eligible bool, at sim.Time) {
	ls := l.node.Board.LinkScheduler()
	if ls == nil {
		return true, 0
	}
	at, limited := ls.EligibleAt(class)
	if !limited || at <= l.node.Eng.Now() {
		return true, 0
	}
	return false, at
}

// deferClass records a not-ready skip with the pacer for attribution
// (idempotent per deficit episode; a no-op for an eligible class).
func (l *LCP) deferClass(class int) {
	if ls := l.node.Board.LinkScheduler(); ls != nil {
		ls.Defer(class)
	}
}

// sendPaced injects one packet of j — a frame built on Board.NewFrame,
// which it gives up — committing its pacing charge without sleeping.
// Every path into inject (requestReady, serveShortPreempt, stepJob) found
// the class eligible at or before this instant, and the LCP is the only
// sender in a paced class, so nothing can have charged the class in
// between: a refused charge is a scheduler bug, not a wait.
func (l *LCP) sendPaced(p *simProc, j *sendJob, frame []byte) error {
	board := l.node.Board
	class := j.st.limits.Class
	if ls := board.LinkScheduler(); ls != nil && !ls.TryCharge(class, board.PayloadLen(frame)) {
		panic(fmt.Sprintf("lcp%d: class %d dispatched while in pacing deficit", l.node.ID, class))
	}
	return board.SendFrameCharged(p, j.dest, j.route, frame, class)
}

// jobRunnable reports whether stepping the job now would progress it:
// it is finished (needs retiring), has a staged chunk to inject, or can
// start its next chunk's host DMA. A job whose class is in pacing
// deficit is not-ready and reports false — the deficit-skip at the
// heart of pacer-aware scheduling.
func (l *LCP) jobRunnable(j *sendJob) bool {
	if j.done() {
		return true
	}
	if j.failed {
		return len(j.staged) > 0 // only staged chunks left to discard
	}
	if len(j.staged) > 0 {
		ok, _ := l.classEligible(j.st.limits.Class)
		return ok
	}
	if !j.dmaBusy && !j.tlbWait && j.nextOff < j.total && len(l.stagingFree) > 0 {
		ok, _ := l.classEligible(j.st.limits.Class)
		return ok
	}
	return false
}

// dropStaged discards a job's staged chunks, returning their staging
// buffers to the free list.
func (l *LCP) dropStaged(j *sendJob) {
	for _, c := range j.staged {
		l.stagingFree = append(l.stagingFree, c.sramOff)
	}
	j.staged = j.staged[:0]
}

// requestReady is the dispatch gate for a queue-head request while no
// long send is in flight: its class must not be in pacing deficit (skips
// are recorded as deferrals). Unbudgeted classes are always ready.
func (l *LCP) requestReady(st *lcpProcState) bool {
	ok, _ := l.classEligible(st.limits.Class)
	if !ok {
		l.deferClass(st.limits.Class)
	}
	return ok
}

// queuedRequestReady mirrors scanQueues' accept test without charging
// time (hasWork's discovery contract).
func (l *LCP) queuedRequestReady() bool {
	for _, pid := range l.scan {
		st := l.states[pid]
		if _, ok := st.sq.peek(); ok && l.requestReady(st) {
			return true
		}
	}
	return false
}

// hasWork checks for runnable work without charging time (the cost of
// discovering work is charged by the handlers and the queue scan).
// Work whose class is in pacing deficit does not count: the main loop
// parks on it with a timed wait at the class's eligibility instant
// instead of spinning. While a long send is in flight the queues offer
// only what the preempt scan would take.
func (l *LCP) hasWork() bool {
	if len(l.rxq) > 0 {
		return true
	}
	if j := l.job; j != nil {
		return l.jobRunnable(j) || l.paced() && l.pendingShortReady()
	}
	return l.queuedRequestReady()
}

// paced reports whether the board paces any traffic class. Short-send
// preemption is on exactly then: a bandwidth budget is what makes one
// process's long send worth interleaving with another's shorts.
func (l *LCP) paced() bool { return l.node.Board.LinkScheduler() != nil }

// nextPacerWake is the earliest future eligibility instant among the
// classes whose pending work the dispatcher is skipping on a pacing
// deficit; ok=false when no deficit is pending (any work arriving then
// rings l.work instead). Each deficient class gets a deferral episode
// opened (idempotently): parking on a class's deficit is held-back time
// and must appear in its ClassStats exactly as the old blocking pacer's
// sleeps did, even when the dispatcher never reached a skip.
func (l *LCP) nextPacerWake() (wake sim.Time, ok bool) {
	consider := func(class int) {
		if eligible, at := l.classEligible(class); !eligible {
			l.deferClass(class)
			if !ok || at < wake {
				wake, ok = at, true
			}
		}
	}
	if l.job != nil {
		consider(l.job.st.limits.Class)
	}
	for _, pid := range l.scan {
		st := l.states[pid]
		if _, has := st.sq.peek(); has {
			consider(st.limits.Class)
		}
	}
	return wake, ok
}

// run is the LCP main loop.
func (l *LCP) run(p *simProc) {
	prof := l.node.Prof
	for {
		for !l.hasWork() {
			// All runnable work (if any) sits in pacing deficit: park
			// until the earliest class turns eligible, or until new work
			// rings the flag — whichever comes first.
			if wake, ok := l.nextPacerWake(); ok && wake > p.Now() {
				l.work.WaitTimeout(p, wake-p.Now())
			} else {
				l.work.Wait(p)
			}
		}
		// In the tight sending loop (§5.3) the LCP bypasses the full main
		// loop while a long send is in progress and no packets arrive.
		tight := prof.TightSendLoop && l.job != nil && len(l.rxq) == 0
		if tight {
			l.m.tightIters.Add(1)
			p.Sleep(prof.LCPDispatch / 4)
		} else {
			l.m.mainIters.Add(1)
			p.Sleep(prof.LCPDispatch)
		}

		// Arriving packets take priority: the tight loop is abandoned on
		// "unexpected, external events, such as the arrival of incoming
		// data packets" (§5.3).
		if len(l.rxq) > 0 {
			if l.job != nil {
				// Abandoning the tight sending loop: save the send state,
				// run the main loop, come back (§5.3).
				l.node.Eng.TraceInstant(l.comp, "lcp", "tight_loop_abandoned")
				p.Sleep(prof.LCPLoopSwitch)
			}
			// Popped in place, so the next arrival reuses the array instead
			// of growing a fresh one behind a head that only moves forward.
			item := l.rxq[0]
			n := copy(l.rxq, l.rxq[1:])
			l.rxq[n] = rxItem{}
			l.rxq = l.rxq[:n]
			l.handleRecv(p, item)
			continue
		}
		if j := l.job; j != nil {
			if l.paced() {
				l.serveShortPreempt(p)
			}
			// Check after the preempt scan: a host DMA that completed (or a
			// pacing deficit that opened) while the short was served is
			// visible to this iteration's dispatch. A job held back by its
			// class's deficit is recorded as deferred.
			if l.jobRunnable(j) {
				l.stepJob(p, j)
			} else if !j.failed {
				l.deferClass(j.st.limits.Class)
			}
			continue
		}
		if st, e, ok := l.scanQueues(p); ok {
			l.startRequest(p, st, e)
		}
	}
}

// pendingShortReady reports whether a short send the preempt scan would
// accept is pending — a queue-head short from a process other than the
// long send's, in a class that is not pacing-deficient — without
// charging time (hasWork's discovery contract; the preempt scan pays
// the poll costs).
func (l *LCP) pendingShortReady() bool {
	for _, pid := range l.scan {
		st := l.states[pid]
		if st == l.job.st {
			continue
		}
		if e, ok := st.sq.peek(); ok && e.inline != nil {
			if eligible, _ := l.classEligible(st.limits.Class); eligible {
				return true
			}
		}
	}
	return false
}

// serveShortPreempt serves at most one pending short send from a process
// other than the long send's — the QoS escape hatch from the §5.3 tight
// loop's head-of-line blocking, where a 128 KB transfer monopolizes the
// control program for milliseconds while a co-resident tenant's 60-byte
// RPC waits. The main loop calls it only while the board paces traffic;
// the paper's LCP runs one request to completion. Only queue heads are
// taken, so each process's own posting order is never reordered; long
// sends from other queues stay queued (one long send per interface).
// A short whose own class is in pacing deficit is not-ready and skipped,
// exactly like a deficient long send.
func (l *LCP) serveShortPreempt(p *simProc) {
	nq := len(l.scan)
	for i := 0; i < nq; i++ {
		idx := (l.scanPtr + i) % nq
		st := l.states[l.scan[idx]]
		if st == l.job.st {
			continue
		}
		p.Sleep(l.node.Prof.LCPScanPerQueue)
		e, ok := st.sq.peek()
		if !ok || e.inline == nil {
			continue
		}
		if eligible, _ := l.classEligible(st.limits.Class); !eligible {
			l.deferClass(st.limits.Class)
			continue
		}
		st.sq.take()
		l.scanPtr = (idx + 1) % nq
		l.m.shortPreempts.Add(1)
		l.handleShort(p, st, e)
		return
	}
}

// scanQueues polls the per-process send queues round-robin, charging the
// per-queue poll cost — with many registered senders, picking up a request
// gets slower (§6), unlike SHRIMP's hardware dispatch. It runs only while
// no long send is in flight; heads whose class is in pacing deficit are
// left queued.
func (l *LCP) scanQueues(p *simProc) (*lcpProcState, sqEntry, bool) {
	nq := len(l.scan)
	for i := 0; i < nq; i++ {
		idx := (l.scanPtr + i) % nq
		st := l.states[l.scan[idx]]
		p.Sleep(l.node.Prof.LCPScanPerQueue)
		e, ok := st.sq.peek()
		if !ok || !l.requestReady(st) {
			continue
		}
		st.sq.take()
		if eng := l.node.Eng; eng.Trace().Enabled() {
			eng.TraceCounter(l.comp, "lcp",
				fmt.Sprintf("sendq%d_depth", st.pid), float64(st.sq.pending()))
		}
		l.scanPtr = (idx + 1) % nq
		return st, e, true
	}
	return nil, sqEntry{}, false
}

// startRequest dispatches a freshly picked-up send request.
func (l *LCP) startRequest(p *simProc, st *lcpProcState, e sqEntry) {
	if e.inline != nil {
		l.handleShort(p, st, e)
		return
	}
	l.startLong(p, st, e)
}

// scatterFor computes the one- or two-piece destination scatter for a
// chunk of n bytes at dest (§4.5: "two physical destination addresses ...
// to perform two piece scatter when the destination memory spans a page
// boundary"). The second piece starts a page, so it is named by its frame.
func scatterFor(outPT *OutgoingTable, dest ProxyAddr, n int) (addr1 mem.PhysAddr, len1 int, frame2 uint32) {
	e1, _ := outPT.lookup(dest.Page())
	addr1 = mem.PhysAddr(e1.destFrame)<<mem.PageShift | mem.PhysAddr(dest.Offset())
	room := mem.PageSize - dest.Offset()
	if n <= room {
		return addr1, n, 0
	}
	e2, _ := outPT.lookup(dest.Page() + 1)
	return addr1, room, uint32(e2.destFrame)
}

// writeCompletion reports a one-word completion status back to user space
// with the LANai-to-host DMA engine, letting the library spin on a cache
// location instead of reading across the bus (§4.5).
func (l *LCP) writeCompletion(p *simProc, st *lcpProcState, seq uint32, code uint32) {
	if st.gone {
		// The process was killed: its status page is unpinned and nobody
		// is spinning on it. Dropping the write is what real hardware
		// does when the doorbell's owner has exited.
		return
	}
	p.Sleep(l.node.Prof.LCPCompletion)
	buf := l.node.Board.SRAM.Bytes(l.scratchOff, 8)
	binary.BigEndian.PutUint32(buf[0:], seq)
	binary.BigEndian.PutUint32(buf[4:], code)
	if err := l.node.Board.SRAMToHost(p, l.scratchOff, st.statusPA, 8); err != nil {
		panic(fmt.Sprintf("lcp%d: completion DMA failed: %v", l.node.ID, err))
	}
}

// handleShort processes a short send: the data is already inline in the
// queue entry in SRAM, so the message is one chunk that needs no staging —
// the LCP copies it to the network buffer, builds the header, reports
// completion (the send buffer — the queue entry — is reusable immediately)
// and injects one packet.
func (l *LCP) handleShort(p *simProc, st *lcpProcState, e sqEntry) {
	l.m.sendsShort.Add(1)
	l.node.Eng.TraceBegin(l.comp, "lcp", "short_send")
	defer l.node.Eng.TraceEnd(l.comp, "lcp", "short_send")
	p.Sleep(l.node.Prof.LCPShortSend)
	if j, ok := l.resolve(p, st, e); ok {
		l.inject(p, &j, stagedChunk{n: e.length, sramOff: inlineChunk, last: true})
	}
}

// resolve is the check every send starts with: the destination must lie
// inside one import of the sender's outgoing page table, and the node it
// names must have a route. It returns the send's state, or reports the
// typed failure to the sender's status page.
func (l *LCP) resolve(p *simProc, st *lcpProcState, e sqEntry) (sendJob, bool) {
	destNode, err := st.outPT.checkTransfer(e.dest, e.length)
	code := uint32(ceNoRoute)
	switch err {
	case nil:
		if route, ok := l.routes[destNode]; ok {
			return sendJob{st: st, e: e, dest: destNode, route: route, total: e.length}, true
		}
	case ErrNotImported:
		code = ceNotImported
	case ErrOutOfRange:
		code = ceOutOfRange
	default:
		code = ceBadSource
	}
	l.writeCompletion(p, st, e.seq, code)
	return sendJob{}, false
}

// inject sends chunk c of j's message as one packet: header with the
// precomputed one- or two-piece scatter, then the bytes — a short send's
// inline data, or a long send's chunk out of SRAM staging — straight into
// the packet buffer, and the completion report on the right side of the
// injection.
func (l *LCP) inject(p *simProc, j *sendJob, c stagedChunk) {
	// The last chunk is safely stored on the board — in the queue entry, or
	// in the LANai buffer once its host DMA finished — so completion is
	// reported before injecting, which in the paper's fire-and-forget
	// configuration cannot fail (§4.2/§4.5). With the reliability layer the
	// injection can fail (retransmit budget exhausted); completion follows
	// it so the error is reportable.
	reliable := l.node.Board.Reliable() != nil
	if !reliable && c.last && !j.completed {
		l.writeCompletion(p, j.st, j.e.seq, ceOK)
		j.completed = true
	}

	addr1, len1, frame2 := scatterFor(j.st.outPT, j.e.dest+ProxyAddr(c.off), c.n)
	// Chunks are at most a page, ids at most maxWireID, a message at most
	// 8 MB; Seq keeps low bits.
	hdr := msgHeader{
		DataLen: uint16(c.n),
		Addr1:   addr1,
		Frame2:  frame2,
		MsgOff:  uint32(c.off),
		Len1:    uint16(len1),
		SrcNode: uint16(l.node.ID),
		SrcPid:  uint16(j.st.pid),
		Seq:     uint16(j.e.seq),
	}
	// Only the last chunk of a notifying message asks for the
	// notification; its MsgOff tells the receiver where the message began.
	if c.last && j.e.notify {
		hdr.Flags |= flagNotify
		l.m.notifyRequested.Add(1)
	}
	board := l.node.Board
	frame := hdr.appendTo(board.NewFrame(hdrSize + c.n))
	if c.sramOff == inlineChunk {
		frame = append(frame, j.e.inline...)
	} else {
		// With the chunk's bytes in the packet its staging buffer is free
		// for the next host DMA.
		frame = append(frame, board.SRAM.Bytes(c.sramOff, c.n)...)
		l.stagingFree = append(l.stagingFree, c.sramOff)
	}
	if err := l.sendPaced(p, j, frame); err != nil {
		// Destination unreachable: abandon the transfer and report the
		// typed failure (the remaining chunks would only burn the budget
		// again).
		j.failed = true
		l.dropStaged(j)
		if !j.completed {
			l.writeCompletion(p, j.st, j.e.seq, ceUnreachable)
			j.completed = true
		}
		return
	}
	j.injOff += c.n
	l.m.packetsOut.Add(1)
	l.m.bytesOut.Add(int64(c.n))
	if reliable && c.last && !j.completed {
		l.writeCompletion(p, j.st, j.e.seq, ceOK)
		j.completed = true
	}
}
