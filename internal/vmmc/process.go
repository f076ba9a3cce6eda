package vmmc

import (
	"encoding/binary"
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Process is a user process linked against the VMMC basic library (§4.1).
// All communication methods take the calling simulation process so their
// costs — memory-mapped I/O to the board, spinning on completion words,
// daemon IPC — are charged to the caller.
type Process struct {
	Pid  int
	Node *Node
	AS   *mem.AddressSpace

	lcpState *lcpProcState
	statusVA mem.VirtAddr

	imports  map[int]importRec // key: base proxy page
	handlers map[uint32]NotifyHandler
	nextSeq  uint32

	// dead marks a handle from before a node crash; every operation on
	// it fails with ErrNodeDown.
	dead bool

	errs ProcErrors
}

// ProcErrors counts the failures the library surfaced to this process —
// the per-process observability for degraded operation.
type ProcErrors struct {
	// SendFailures counts sends that completed with an error (including
	// ErrNodeUnreachable) or were rejected because the node is down.
	SendFailures int64
	// ImportFailures counts failed imports (denied, missing export,
	// unreachable daemon, node down).
	ImportFailures int64
}

// Errors returns the process's error counters.
func (proc *Process) Errors() ProcErrors { return proc.errs }

// Limits returns the admission-time resource partition the process runs
// under (the zero value for legacy NewProcess callers).
func (proc *Process) Limits() ProcLimits { return proc.lcpState.limits }

// PinnedFrames reports how many host frames are currently locked on the
// process's behalf — TLB translations plus export locks.
func (proc *Process) PinnedFrames() int { return proc.lcpState.pins }

// Dead reports whether the process handle went permanently stale (its
// node crashed, or the process was killed or closed).
func (proc *Process) Dead() bool { return proc.dead }

// alive gates every library call against node death.
func (proc *Process) alive() error {
	if proc.dead || proc.Node.crashed {
		return ErrNodeDown
	}
	return nil
}

type importRec struct {
	exporterNode int
	tag          uint32
	lease        int // the id of the request that took the exporter's lease
	basePage     int
	pages        int
	// stale marks an import whose exporter restarted since the handshake:
	// the frame list cached in the outgoing page table is no longer
	// trustworthy. Set by the self-healing layer; cleared by
	// RevalidateImport.
	stale bool
}

// NotifyHandler is a user-level notification handler (§2): invoked after a
// notifying message has been delivered into the receive buffer. from
// identifies the sending process (taken from the packet header), so a
// handler on an export imported by many peers — the fan-in idiom the
// collectives layer relies on — can demultiplex without encoding the
// sender into the payload. offset and length describe the whole message
// within the export, across all of its chunks. Like a signal handler, it
// runs to completion in the signal's event: it may count, queue and wake a
// process, which sends any reply, but never blocks. Handlers of one
// process never overlap and run in arrival order.
type NotifyHandler func(from ProcID, tag uint32, offset, length int)

// ID returns the process's cluster-wide identity.
func (proc *Process) ID() ProcID { return ProcID{Node: proc.Node.ID, Pid: proc.Pid} }

// Malloc allocates n bytes of fresh page-aligned virtual memory.
func (proc *Process) Malloc(n int) (mem.VirtAddr, error) {
	return proc.AS.Alloc(n)
}

// Write stores data into the process's virtual memory (ordinary user-space
// stores; no modeled cost — copies that matter on the data path are
// charged explicitly via the CPU model).
func (proc *Process) Write(va mem.VirtAddr, data []byte) error {
	return proc.AS.WriteBytes(va, data)
}

// Read loads n bytes from the process's virtual memory.
func (proc *Process) Read(va mem.VirtAddr, n int) ([]byte, error) {
	return proc.AS.ReadBytes(va, n)
}

// ReadInto loads len(dst) bytes from the process's virtual memory into dst:
// Read for a caller that already has the destination.
func (proc *Process) ReadInto(va mem.VirtAddr, dst []byte) error {
	return proc.AS.ReadInto(va, dst)
}

// Export makes [va, va+n) available as a receive buffer under tag (§2).
// The buffer must be page aligned. allowed restricts the importers; nil
// allows any. notifyOK permits senders to attach notifications.
func (proc *Process) Export(p *simProc, tag uint32, va mem.VirtAddr, n int, allowed []ProcID, notifyOK bool) error {
	if err := proc.alive(); err != nil {
		return err
	}
	return proc.Node.Daemon.exportLocal(p, proc, tag, va, n, allowed, notifyOK)
}

// Unexport withdraws an export. It fails while an import holds a lease.
func (proc *Process) Unexport(p *simProc, tag uint32) error {
	if _, ok := proc.export(tag); !ok {
		return ErrNotExported
	}
	return proc.Node.Daemon.unexportLocal(p, proc, tag)
}

// export returns the daemon's record of the process's export under tag.
func (proc *Process) export(tag uint32) (*exportInfo, bool) {
	info, ok := proc.Node.Daemon.exports[tag]
	return info, ok && info.pid == proc.Pid
}

// exportTags lists the tags the process exports, in ascending order.
func (proc *Process) exportTags() []uint32 {
	var tags []uint32
	for tag, info := range proc.Node.Daemon.exports {
		if info.pid == proc.Pid {
			tags = append(tags, tag)
		}
	}
	slices.Sort(tags)
	return tags
}

// importsByPage lists the process's imports in proxy-page order.
func (proc *Process) importsByPage() []importRec {
	recs := make([]importRec, 0, len(proc.imports))
	for _, rec := range proc.imports {
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, func(a, b importRec) int { return a.basePage - b.basePage })
	return recs
}

// Import maps the remote receive buffer (exporterNode, tag) into this
// process's destination proxy space, returning the proxy address and the
// buffer length (§2).
func (proc *Process) Import(p *simProc, exporterNode int, tag uint32) (ProxyAddr, int, error) {
	if err := proc.alive(); err != nil {
		proc.errs.ImportFailures++
		return 0, 0, err
	}
	base, n, err := proc.Node.Daemon.importRemote(p, proc, exporterNode, tag)
	if err != nil {
		proc.errs.ImportFailures++
	}
	return base, n, err
}

// Unimport releases an import by its proxy base address. It returns once
// the exporter's daemon acknowledges the lease's release, an Ethernet round
// trip later, as Import returns after its reply; with no acknowledgement it
// fails with ErrDaemonUnreachable, the import gone locally all the same.
func (proc *Process) Unimport(p *simProc, base ProxyAddr) error {
	rec, ok := proc.imports[base.Page()]
	if !ok {
		return ErrNotImported
	}
	return proc.Node.Daemon.unimportLocal(p, proc, rec)
}

// importFor finds the import record covering a proxy destination page.
func (proc *Process) importFor(dest ProxyAddr) (importRec, bool) {
	pg := dest.Page()
	for _, rec := range proc.imports {
		if pg >= rec.basePage && pg < rec.basePage+rec.pages {
			return rec, true
		}
	}
	return importRec{}, false
}

// RevalidateImport re-runs the import handshake for an import the
// self-healing layer marked stale (its exporter restarted): once the
// exporter has re-exported the same tag, the fresh frame list replaces the
// outgoing page-table entries in place, so the proxy address the
// application holds stays valid. The re-export must span the same number
// of pages as the original.
func (proc *Process) RevalidateImport(p *simProc, base ProxyAddr) error {
	if err := proc.alive(); err != nil {
		proc.errs.ImportFailures++
		return err
	}
	rec, ok := proc.imports[base.Page()]
	if !ok {
		return ErrNotImported
	}
	if err := proc.Node.Daemon.revalidateImport(p, proc, rec); err != nil {
		proc.errs.ImportFailures++
		return err
	}
	return nil
}

// RegisterHandler installs the notification handler for messages arriving
// in the export tagged tag.
func (proc *Process) RegisterHandler(tag uint32, h NotifyHandler) {
	proc.handlers[tag] = h
}

// SendOptions modify a send request.
type SendOptions struct {
	// Notify attaches a notification: the receiver's handler runs after
	// the message is delivered (§2).
	Notify bool
}

// SendMsg posts a deliberate-update transfer of n bytes from local virtual
// address src to the imported destination dest (§2: SendMsg(srcAddr,
// destAddr, nbytes)). It returns immediately after posting — asynchronous
// send. Use WaitSend (or SendMsgSync) before reusing the send buffer.
//
// The short/long protocol split at 128 bytes is transparent: short sends
// copy the data into the SRAM send queue with programmed I/O; long sends
// post only the buffer's virtual address (§4.5).
func (proc *Process) SendMsg(p *simProc, src mem.VirtAddr, dest ProxyAddr, n int, opts SendOptions) (uint32, error) {
	if err := proc.alive(); err != nil {
		proc.errs.SendFailures++
		return 0, err
	}
	if n <= 0 {
		return 0, ErrBadBuffer
	}
	if n > proc.Node.Prof.MaxTransfer {
		return 0, ErrTooLong
	}
	if !proc.AS.Mapped(src, n) {
		return 0, ErrBadBuffer
	}
	if rec, ok := proc.importFor(dest); ok && rec.stale {
		// The exporter restarted: the outgoing page table entries under
		// dest translate to frames of a dead address space, and in the
		// reborn one those frame numbers may belong to someone else's
		// export. Refuse rather than scribble; RevalidateImport repairs.
		proc.errs.SendFailures++
		return 0, ErrImportStale
	}

	// Library bookkeeping before the board is touched.
	proc.Node.CPU.Compute(p, proc.Node.Prof.LibSendCost)
	seq := proc.nextSeq
	proc.nextSeq++
	e := sqEntry{length: n, dest: dest, seq: seq, notify: opts.Notify}
	if n <= proc.Node.Prof.ShortSendMax {
		data, err := proc.AS.ReadBytes(src, n)
		if err != nil {
			return 0, err
		}
		e.inline = data
	} else {
		e.srcVA = src
	}

	// The send queue is preallocated in SRAM; if it is full the library
	// spins until the LCP drains an entry. The ring lives on the board,
	// not in host memory, so this spin is not memory-scoped. A spin on a
	// true predicate returns at once, so it is entered only when full.
	sq := proc.lcpState.sq
	if sq.full() {
		proc.Node.CPU.Spin(p, 0, nil, func() bool { return !sq.full() })
	}
	proc.Node.CPU.MMIOWriteWords(p, postWords(e))
	sq.post(e)
	proc.Node.LCP.doorbell()
	return seq, nil
}

// SendDone reports whether the send with the given sequence number has
// completed, without blocking — the asynchronous-send check (§5.3). It
// reads the completion words the LANai writes with host DMA into the
// pinned status page (the library spins on the cached copy, §4.5). A dead
// handle's status page went with its frames: the send is done, with
// ErrNodeDown.
func (proc *Process) SendDone(seq uint32) (bool, error) {
	var b [8]byte
	if err := proc.AS.ReadInto(proc.statusVA, b[:]); err != nil {
		return true, ErrNodeDown
	}
	done, code := binary.BigEndian.Uint32(b[0:]), binary.BigEndian.Uint32(b[4:])
	if done < seq {
		return false, nil
	}
	if done == seq && code != ceOK {
		return true, completionError(code)
	}
	return true, nil
}

// WaitSend spins until the send with the given sequence number completes:
// the send buffer may be reused afterwards.
//
// The spin is memory-scoped (SpinOnMemory): it reads the completion words
// in the status page, plus the process's and the node's liveness, whose
// writers (crash, restart, KillProcess) Touch the node's memory version.
func (proc *Process) WaitSend(p *simProc, seq uint32) error {
	proc.SpinOnMemory(p, 0, func() bool {
		if proc.alive() != nil {
			return true // the completion will never arrive
		}
		done, _ := proc.SendDone(seq)
		return done
	})
	// The process resumes in the dispatch whose sample ended the spin, so
	// what it reads here is what that sample saw.
	result := proc.alive()
	if result == nil {
		_, result = proc.SendDone(seq)
	}
	if result != nil {
		proc.errs.SendFailures++
	}
	return result
}

// SendMsgSync is the synchronous send: it returns once the data has been
// transferred to the network interface and the send buffer is reusable
// (§5.3). For short sends the data is copied into the SRAM send queue at
// posting time, so the call returns immediately — synchronous and
// asynchronous overheads are equal below the threshold, as the paper
// observes. Protocol errors on a short send are reported asynchronously;
// use SendMsgChecked to surface them.
func (proc *Process) SendMsgSync(p *simProc, src mem.VirtAddr, dest ProxyAddr, n int, opts SendOptions) error {
	seq, err := proc.SendMsg(p, src, dest, n, opts)
	if err != nil {
		return err
	}
	if n <= proc.Node.Prof.ShortSendMax {
		return nil
	}
	return proc.WaitSend(p, seq)
}

// SendMsgChecked posts a send and waits for its completion status even
// when the buffer-reuse contract would not require it, surfacing
// protocol errors (unimported destination, overrun) synchronously.
func (proc *Process) SendMsgChecked(p *simProc, src mem.VirtAddr, dest ProxyAddr, n int, opts SendOptions) error {
	seq, err := proc.SendMsg(p, src, dest, n, opts)
	if err != nil {
		return err
	}
	return proc.WaitSend(p, seq)
}

// SpinUntil spins the process until pred reports true — the VMMC idiom
// for message reception (data appears in the exported buffer without any
// receive call), open to any condition on model state.
//
// pred must be a pure function of model state: no side effects while it
// returns false, and no reading of the clock. It may read anything — host
// memory, SRAM, a Go variable another simulation process sets — so the
// spin is not memory-scoped: the simulator evaluates it at every 0.1 us
// sample that follows a simulator event, since no other sample could see a
// different answer. A predicate that reads only the node's memory belongs
// on SpinByte or SpinOnMemory, which are re-evaluated only after a write
// to that memory.
func (proc *Process) SpinUntil(p *simProc, pred func() bool) {
	proc.Node.CPU.Spin(p, 0, nil, pred)
}

// SpinOnMemory is the memory-scoped spin: pred must read nothing but this
// node's host memory, through proc.AS or Node.Phys (plus proc.Dead and
// Node.Crashed, whose writers touch the memory version). It is evaluated
// only at samples that follow a write to that memory — a DMA deposit, a
// CPU store, a page mapped or unmapped — which is all that can change its
// answer; a Go variable, SRAM state or another node's memory it also read
// would go unnoticed (sim.Engine.VerifySkips catches that in tests). The
// spin is bounded by the absolute virtual time deadline (0 = unbounded)
// and reports false if the first sample at or after it still finds pred
// false.
func (proc *Process) SpinOnMemory(p *simProc, deadline sim.Time, pred func() bool) bool {
	return proc.Node.CPU.Spin(p, deadline, proc.Node.Phys.Version(), pred)
}

// PollUntil behaves like a polling loop over memory the interface writes
// into — it returns once pred observes the awaited state — but parks the
// process between deposits instead of burning poll iterations, charging
// one poll interval of discovery latency per wakeup. Use it for
// long-running servers; SpinUntil is fine for bounded waits.
func (proc *Process) PollUntil(p *simProc, pred func() bool) {
	for !pred() {
		proc.Node.MemActivity.Wait(p)
		p.Sleep(proc.Node.Prof.SpinCheckInterval)
	}
}

// SpinByte spins until the byte at va equals want, then returns. This is
// the canonical "poll the flag at the end of the buffer" receive, and it
// is memory-scoped (SpinOnMemory): a sample is evaluated only after a
// write to the node's memory or a change to its page mappings.
func (proc *Process) SpinByte(p *simProc, va mem.VirtAddr, want byte) {
	proc.SpinOnMemory(p, 0, func() bool {
		var b [1]byte
		return proc.AS.ReadInto(va, b[:]) == nil && b[0] == want
	})
}
