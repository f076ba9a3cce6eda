package vmmc

import (
	"fmt"

	"repro/internal/mem"
)

// sendJob is a long send in progress (§4.5). The message is sent in chunks
// of up to a page; the first chunk only reaches the first source page
// boundary so every later chunk is page-aligned on the send side. Chunk
// staging uses the two SRAM staging buffers: while the network DMA injects
// one chunk, the host DMA fills the other, and headers for the next chunk
// are precomputed while the host DMA is still in flight — the pipelining
// that yields 98% of the host-DMA bandwidth limit.
type sendJob struct {
	st    *lcpProcState
	e     sqEntry
	dest  int    // destination node, which is its NIC id
	route []byte // the route to dest at pickup

	total   int // message length
	nextOff int // next byte to start a host DMA for
	sentDMA int // bytes whose host DMA completed
	injOff  int // bytes injected onto the wire

	dmaBusy bool
	tlbWait bool
	staged  []stagedChunk // chunks ready to inject (<= 2)

	// The chunk whose host DMA is in flight (dmaBusy) and where its bytes
	// come from. A job has at most one, so the two steps of the transfer —
	// its start and its completion, both event callbacks — are bound to the
	// job once (startLong) instead of per chunk.
	dma               stagedChunk
	dmaSrc            mem.PhysAddr
	dmaStart, dmaDone func()

	completed bool // completion status written
	hdrReady  bool // next header precomputed during host DMA
	failed    bool
}

type stagedChunk struct {
	off     int // offset within the message
	n       int
	sramOff int // staging buffer holding the bytes, or inlineChunk
	last    bool
}

// inlineChunk stands in for a staging buffer in the one chunk of a short
// send, whose bytes sit inline in the queue entry.
const inlineChunk = -1

func (j *sendJob) done() bool {
	return (j.failed || (j.sentDMA == j.total && j.injOff == j.total)) && len(j.staged) == 0 && !j.dmaBusy
}

// startLong validates a long-send request and makes it the LCP's job.
// Only one long send is in flight per interface; further requests, any
// process's and any traffic class's, wait in their send queues (the
// paper's design point: "only one request can be posted for very long
// sends", §6). A job in pacing deficit therefore holds back every other
// long send on the board; other processes' shorts are still served
// between its chunks (serveShortPreempt).
func (l *LCP) startLong(p *simProc, st *lcpProcState, e sqEntry) {
	l.m.sendsLong.Add(1)
	p.Sleep(l.node.Prof.LCPLongSendSetup)
	job, ok := l.resolve(p, st, e)
	if !ok {
		return
	}
	j := l.idleJob
	l.idleJob = nil
	if j == nil {
		j = new(sendJob)
		j.dmaStart = func() { l.chunkDMAStart(j) }
		j.dmaDone = func() { l.chunkDMADone(j) }
	}
	job.dmaStart, job.dmaDone, job.staged = j.dmaStart, j.dmaDone, j.staged[:0]
	*j = job
	l.job = j
	l.node.Eng.TraceBegin(l.comp, "lcp", "long_send")
	l.stepJob(p, j)
}

// stepJob advances one job without blocking on the host DMA: it starts
// the next chunk's host DMA asynchronously, then injects any staged
// chunk (wire time overlaps the DMA). When neither is possible the LCP
// returns to its wait loop until the DMA completion rings the work flag.
// Injection is gated on the class's pacing eligibility — a job whose
// class fell into deficit keeps its chunk staged and simply returns, to
// be redispatched at the class's eligibility instant.
func (l *LCP) stepJob(p *simProc, j *sendJob) {
	prof := l.node.Prof

	// Phase 1: keep the host DMA engine busy with the next chunk.
	if !j.failed && !j.dmaBusy && !j.tlbWait && j.nextOff < j.total &&
		len(j.staged) == 0 && len(l.stagingFree) > 0 {
		l.startChunkDMA(p, j)
	}

	// A failed job discards anything still staged (including chunks whose
	// host DMA completed after the failure) instead of injecting it.
	if j.failed {
		l.dropStaged(j)
	}

	// Phase 2: inject a staged chunk.
	if len(j.staged) > 0 {
		if eligible, _ := l.classEligible(j.st.limits.Class); !eligible {
			// The class slipped into deficit since dispatch (a short in
			// the same class charged this iteration): not-ready, leave
			// the chunk staged.
			l.deferClass(j.st.limits.Class)
			return
		}
		c := j.staged[0]
		j.staged = j.staged[:copy(j.staged, j.staged[1:])] // in place: the next append reuses the array

		// Start the following chunk's host DMA before injecting, so the
		// two overlap (§4.5). Without the pipelining knob this is skipped
		// and the DMA starts only on the next step, serializing.
		if prof.PipelineChunks && !j.failed && !j.dmaBusy && !j.tlbWait &&
			j.nextOff < j.total && len(l.stagingFree) > 0 {
			l.startChunkDMA(p, j)
		}

		// Header preparation: precomputed during the previous host DMA
		// when enabled, otherwise paid here, on the critical path.
		if !prof.PrecomputeHeaders || !j.hdrReady {
			p.Sleep(prof.LCPHeaderPrep)
		}
		j.hdrReady = prof.PrecomputeHeaders // next header overlaps the DMA now in flight

		l.inject(p, j, c)
	}

	if j.done() {
		l.job = nil
		l.node.Eng.TraceEnd(l.comp, "lcp", "long_send")
		// A job still waiting on a refill is named by its callback; the
		// rest can carry the next long send.
		if !j.tlbWait {
			l.idleJob = j
		}
	}
}

// chunkAt returns the chunk starting at message offset off: up to the next
// source page boundary (§4.5).
func (j *sendJob) chunkAt(off int) int {
	src := j.e.srcVA + mem.VirtAddr(off)
	n := mem.PageSize - src.Offset()
	if n > j.total-off {
		n = j.total - off
	}
	return n
}

// startChunkDMA looks the chunk's source page up in the process TLB —
// raising a refill interrupt on a miss — and starts the host DMA into a
// staging buffer. The host-DMA engine is a piece of silicon beside the
// LANai processor, not a thread of it (§3): the transfer is a continuation
// on the engine (lanai.Board.StartHostToSRAM) that runs concurrently with
// the LCP, and its completion stages the chunk and rings the work flag.
func (l *LCP) startChunkDMA(p *simProc, j *sendJob) {
	prof := l.node.Prof
	off := j.nextOff
	n := j.chunkAt(off)
	src := j.e.srcVA + mem.VirtAddr(off)

	p.Sleep(prof.LCPTLBProbe)
	frame, hit := j.st.tlb.Lookup(uint64(src.Page()))
	if !hit {
		// Interrupt the host; the driver inserts up to 32 translations
		// and locks the pages (§4.5). The job stalls; receives may be
		// processed meanwhile.
		l.m.tlbMisses.Add(1)
		l.m.tlbMissStalls.Add(1)
		l.node.Eng.TraceInstant(l.comp, "lcp", "tlb_miss_stall")
		j.tlbWait = true
		l.node.Driver.tlbMiss(j.st.pid, uint64(src.Page()), func(err error) {
			j.tlbWait = false
			if err != nil {
				j.failed = true
				// Report the failure on the host path: the driver
				// could not translate the send buffer.
				if !j.completed {
					st, seq := j.st, j.e.seq
					l.node.Eng.Go(l.failProcName, func(fp *simProc) {
						l.writeCompletion(fp, st, seq, ceBadSource)
					})
				}
				j.completed = true
			}
			l.work.Signal()
		})
		return
	}
	l.m.tlbHits.Add(1)

	srcPA := mem.PhysAddr(frame)<<mem.PageShift | mem.PhysAddr(src.Offset())
	if len(l.stagingFree) == 0 {
		return // no staging buffer free; dispatch retries when one returns
	}
	slot := l.stagingFree[len(l.stagingFree)-1]
	l.stagingFree = l.stagingFree[:len(l.stagingFree)-1]
	j.nextOff += n
	j.dmaBusy = true
	j.dma = stagedChunk{off: off, n: n, sramOff: slot, last: j.nextOff == j.total}
	j.dmaSrc = srcPA
	// The transfer starts one zero-delay event from now: whatever is
	// already scheduled for this instant — a kill, a store into the source
	// page — happens before the owner check and the copy.
	l.node.Eng.Post(0, j.dmaStart)
}

// chunkDMAStart begins the host DMA of j.dma.
func (l *LCP) chunkDMAStart(j *sendJob) {
	c := j.dma
	if j.st.gone {
		// The owner was killed between scheduling and start: its
		// TLB pins are already released, so the DMA must not run.
		j.dmaBusy = false
		j.failed = true
		l.stagingFree = append(l.stagingFree, c.sramOff)
		l.work.Signal()
		return
	}
	if err := l.node.Board.StartHostToSRAM(l.dmaLabel, j.dmaSrc, c.sramOff, c.n, j.dmaDone); err != nil {
		// The TLB pinned this page; a failure here is a model bug.
		panic(fmt.Sprintf("lcp%d: chunk DMA failed: %v", l.node.ID, err))
	}
}

// chunkDMADone stages the chunk whose host DMA has just completed.
func (l *LCP) chunkDMADone(j *sendJob) {
	j.dmaBusy = false
	j.sentDMA += j.dma.n
	j.staged = append(j.staged, j.dma)
	l.work.Signal()
}
