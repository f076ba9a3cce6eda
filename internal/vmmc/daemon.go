package vmmc

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Daemon is the per-node VMMC daemon (§4.1): trusted user-level software
// that matches export and import requests and installs the page-table
// entries that make transfers possible. Local processes reach it through
// (modeled) local IPC; daemons reach each other over Ethernet (§4.4).
type Daemon struct {
	node *Node
	eth  *ether.Bus
	box  *sim.Queue[ether.Message]

	// exports is this node's registry, keyed by tag.
	exports map[uint32]*exportInfo

	// import replies pending from remote daemons, keyed by request id;
	// ids are never reused, not even across a restart (see reset).
	nextReq int
	waiting map[int]*importWait

	// served caches import replies by requester so a retransmitted
	// request (its reply was lost on the Ethernet) is answered
	// idempotently instead of double-counting the importer.
	served map[servedKey]importRep

	// proc is the service loop, killed when the node crashes.
	proc *simProc

	// Exports registered, imports granted, and import requests
	// retransmitted: "node<id>/daemon_exports", "/daemon_imports_served"
	// and "/daemon_import_retries".
	mExports, mImports, mRetries *trace.Counter
}

// servedKey identifies one import request cluster-wide.
type servedKey struct {
	node  int
	reqID int
}

type exportInfo struct {
	pid       int
	tag       uint32
	baseVA    mem.VirtAddr
	length    int
	frames    []int
	allowed   []ProcID // nil = anyone may import
	notifyOK  bool
	importers int
}

// ProcID names a process cluster-wide.
type ProcID struct {
	Node int
	Pid  int
}

// Daemon wire messages (ether bodies).
type importReq struct {
	ReqID    int
	Importer ProcID
	Tag      uint32
}

type importRep struct {
	ReqID  int
	Err    string
	Frames []int
	Length int
}

type unimportMsg struct {
	Tag uint32
}

type importWait struct {
	done bool
	rep  importRep
	cond *sim.Cond
}

const daemonIPCCost = 30 * sim.Microsecond // local process <-> daemon round trip

// Import handshake recovery over the (possibly lossy) Ethernet: the first
// retransmission after importBaseTimeout, each following wait doubled up to
// importMaxTimeout, importMaxRetries retransmissions before giving up.
const (
	importBaseTimeout = 3 * sim.Millisecond
	importMaxTimeout  = 24 * sim.Millisecond
	importMaxRetries  = 4
)

func newDaemon(n *Node, eth *ether.Bus) *Daemon {
	c := func(name string) *trace.Counter {
		return n.Eng.Metrics().Counter(fmt.Sprintf("node%d/daemon_%s", n.ID, name))
	}
	return &Daemon{
		node:     n,
		eth:      eth,
		box:      eth.Register(n.ID),
		exports:  make(map[uint32]*exportInfo),
		waiting:  make(map[int]*importWait),
		served:   make(map[servedKey]importRep),
		mExports: c("exports"),
		mImports: c("imports_served"),
		mRetries: c("import_retries"),
	}
}

// start launches the daemon's Ethernet service loop.
func (d *Daemon) start() {
	d.proc = d.node.Eng.Go(fmt.Sprintf("daemon:%d", d.node.ID), func(p *simProc) {
		p.SetDaemon(true)
		for {
			m := d.box.Get(p)
			switch body := m.Body.(type) {
			case importReq:
				d.serveImport(p, m.From, body)
			case importRep:
				if w, ok := d.waiting[body.ReqID]; ok {
					delete(d.waiting, body.ReqID)
					w.rep = body
					w.done = true
					w.cond.Broadcast()
				}
			case unimportMsg:
				if e, ok := d.exports[body.Tag]; ok && e.importers > 0 {
					e.importers--
				}
			default:
				panic(fmt.Sprintf("daemon%d: unknown message %T", d.node.ID, m.Body))
			}
		}
	})
}

// exportLocal registers an export: the daemon locks the receive buffer
// pages in memory and sets the incoming page table entries to allow data
// reception (§4.4). The buffer must be page aligned so no unrelated data
// shares an exported frame.
func (d *Daemon) exportLocal(p *simProc, proc *Process, tag uint32, va mem.VirtAddr, n int, allowed []ProcID, notifyOK bool) (*exportInfo, error) {
	p.Sleep(daemonIPCCost)
	if va.Offset() != 0 {
		return nil, ErrNotAligned
	}
	if n <= 0 || !proc.AS.Mapped(va, n) {
		return nil, ErrBadBuffer
	}
	if _, dup := d.exports[tag]; dup {
		return nil, ErrAlreadyInUse
	}
	frames, err := d.node.Driver.translateAndLock(proc, va, n)
	if err != nil {
		return nil, err
	}
	info := &exportInfo{
		pid:      proc.Pid,
		tag:      tag,
		baseVA:   va,
		length:   n,
		frames:   frames,
		allowed:  allowed,
		notifyOK: notifyOK,
	}
	d.exports[tag] = info

	// Install incoming page table entries: whole frames are writable,
	// clipped to the exported extent on the final partial page.
	for i, f := range frames {
		end := mem.PageSize
		if last := n - i*mem.PageSize; last < end {
			end = last
		}
		d.node.LCP.incoming.set(f, inEntry{
			writable: true,
			notifyOK: notifyOK,
			owner:    proc.Pid,
			tag:      tag,
			frameVA:  va + mem.VirtAddr(i*mem.PageSize),
			baseVA:   va,
			start:    0,
			end:      end,
		})
	}
	d.mExports.Add(1)
	return info, nil
}

// unexportLocal removes an export; it fails while remote imports remain.
func (d *Daemon) unexportLocal(p *simProc, proc *Process, tag uint32) error {
	p.Sleep(daemonIPCCost)
	info, ok := d.exports[tag]
	if !ok || info.pid != proc.Pid {
		return ErrNotExported
	}
	if info.importers > 0 {
		return ErrStillImported
	}
	if _, active := d.node.LCP.redirects[tag]; active {
		return ErrStillImported // a posted redirect holds the export live
	}
	d.dropExport(proc.lcpState, info)
	return nil
}

// dropExport forgets one export, for the polite path and the abrupt one
// alike: its incoming page-table entries are cleared, its frames unlocked,
// and the registry entry and arrival high-water mark dropped.
func (d *Daemon) dropExport(st *lcpProcState, info *exportInfo) {
	for _, f := range info.frames {
		d.node.LCP.incoming.clear(f)
	}
	d.node.Driver.unlock(st, info.frames)
	delete(d.exports, info.tag)
	delete(d.node.LCP.arrivedHW, info.tag)
}

// scrubProcess is the local-only teardown of a dead process's daemon state
// (KillProcess, and every process of a crashing node): exports vanish with
// any redirect posted on them, and imports release their proxy ranges — all
// without any Ethernet traffic, because the owner died abruptly and the OS
// reclaims silently. Remote importers of the scrubbed exports keep their
// (now dangling) reference counts; a tenant kill scrubs every node's
// side of the tenant, so those counters die with their owners. All
// operations here are pure state updates — no events, no sleeps — so
// map-iteration order cannot influence the simulation.
func (d *Daemon) scrubProcess(proc *Process) {
	for tag, info := range d.exports {
		if info.pid != proc.Pid {
			continue
		}
		d.dropExport(proc.lcpState, info)
		if rd, ok := d.node.LCP.redirects[tag]; ok && rd.pid == proc.Pid {
			d.node.Driver.unlock(proc.lcpState, rd.frames)
			delete(d.node.LCP.redirects, tag)
		}
	}
	for base, rec := range proc.imports {
		proc.lcpState.outPT.freeRange(rec.basePage, rec.pages)
		delete(proc.imports, base)
	}
}

// importRemote resolves an import against the exporting node's daemon: it
// obtains the receive buffer's physical frame list over Ethernet, then
// installs outgoing page table entries mapping fresh proxy pages to those
// remote frames (§4.4).
func (d *Daemon) importRemote(p *simProc, proc *Process, exporterNode int, tag uint32) (ProxyAddr, int, error) {
	p.Sleep(daemonIPCCost)
	rep, err := d.requestImport(p, proc, exporterNode, tag)
	if err != nil {
		return 0, 0, err
	}

	pages := len(rep.Frames)
	base, err := proc.lcpState.outPT.allocRange(pages)
	if err != nil {
		// Release the exporter-side reference we just took.
		d.eth.Send(p, d.node.ID, exporterNode, "unimport", unimportMsg{Tag: tag})
		return 0, 0, err
	}
	d.installImport(p, proc, exporterNode, tag, base, rep)
	return ProxyAddr(base) << mem.PageShift, rep.Length, nil
}

// installImport maps the proxy pages from base onto the frame list of an
// import reply — the daemon writes the entries into board SRAM across the
// PCI bus, the final one clipped to the buffer's extent — and records the
// import. A revalidation installs over the range it already holds, which
// also clears the stale mark.
func (d *Daemon) installImport(p *simProc, proc *Process, exporterNode int, tag uint32, base int, rep importRep) {
	d.node.CPU.MMIOWriteWords(p, len(rep.Frames))
	for i, f := range rep.Frames {
		vb := mem.PageSize
		if last := rep.Length - i*mem.PageSize; last < vb {
			vb = last
		}
		proc.lcpState.outPT.entries[base+i] = outEntry{
			valid:      true,
			destNode:   exporterNode,
			destFrame:  f,
			validBytes: vb,
		}
	}
	proc.imports[base] = importRec{
		exporterNode: exporterNode,
		tag:          tag,
		basePage:     base,
		pages:        len(rep.Frames),
		length:       rep.Length,
	}
}

// requestImport runs the Ethernet half of the import handshake: it asks
// the exporting node's daemon for the frame list under tag and retries
// through the lossy medium. Shared by the initial import and the
// self-healing layer's revalidation.
func (d *Daemon) requestImport(p *simProc, proc *Process, exporterNode int, tag uint32) (importRep, error) {
	d.nextReq++
	req := importReq{
		ReqID:    d.nextReq,
		Importer: ProcID{Node: d.node.ID, Pid: proc.Pid},
		Tag:      tag,
	}
	w := &importWait{cond: sim.NewCond(d.node.Eng)}
	d.waiting[req.ReqID] = w
	// Request/retry loop: the Ethernet may lose the request or the reply;
	// the exporter answers retransmissions idempotently (see serveImport).
	timeout := importBaseTimeout
	for attempt := 0; !w.done; attempt++ {
		if attempt > importMaxRetries {
			delete(d.waiting, req.ReqID)
			return importRep{}, ErrDaemonUnreachable
		}
		if attempt > 0 {
			d.mRetries.Add(1)
			d.node.Eng.TraceInstant(fmt.Sprintf("daemon%d", d.node.ID), "daemon", "import_retry")
		}
		d.eth.Send(p, d.node.ID, exporterNode, "import-req", req)
		deadline := d.node.Eng.Now() + timeout
		for !w.done && d.node.Eng.Now() < deadline {
			w.cond.WaitTimeout(p, deadline-d.node.Eng.Now())
		}
		if timeout *= 2; timeout > importMaxTimeout {
			timeout = importMaxTimeout
		}
	}
	rep := w.rep
	if rep.Err != "" {
		switch rep.Err {
		case ErrDenied.Error():
			return importRep{}, ErrDenied
		case ErrNoSuchExport.Error():
			return importRep{}, ErrNoSuchExport
		default:
			return importRep{}, fmt.Errorf("vmmc: import failed: %s", rep.Err)
		}
	}
	return rep, nil
}

// revalidateImport refreshes a stale import against the exporter's
// restarted daemon: same tag, same proxy range. A fresh handshake fetches
// the re-export's frame list and rewrites the outgoing page-table entries
// in place, keeping the importer's proxy address stable. The re-export
// must span the same page count — a differently sized buffer cannot alias
// the old proxy range and surfaces as ErrBadBuffer.
func (d *Daemon) revalidateImport(p *simProc, proc *Process, rec importRec) error {
	p.Sleep(daemonIPCCost)
	rep, err := d.requestImport(p, proc, rec.exporterNode, rec.tag)
	if err != nil {
		return err
	}
	if len(rep.Frames) != rec.pages {
		// Release the exporter-side reference the handshake just took.
		d.eth.Send(p, d.node.ID, rec.exporterNode, "unimport", unimportMsg{Tag: rec.tag})
		return fmt.Errorf("vmmc: re-export of tag %d spans %d pages, import had %d: %w",
			rec.tag, len(rep.Frames), rec.pages, ErrBadBuffer)
	}
	d.installImport(p, proc, rec.exporterNode, rec.tag, rec.basePage, rep)
	if d.node.heal != nil {
		d.node.heal.noteRevalidation()
	}
	return nil
}

// serveImport answers a remote daemon's import request. Retransmitted
// requests (the reply was lost) are answered from the served cache so the
// importer reference count moves exactly once per logical import.
func (d *Daemon) serveImport(p *simProc, from int, req importReq) {
	key := servedKey{node: from, reqID: req.ReqID}
	if rep, ok := d.served[key]; ok {
		d.eth.Send(p, d.node.ID, from, "import-rep", rep)
		return
	}
	rep := importRep{ReqID: req.ReqID}
	info, ok := d.exports[req.Tag]
	switch {
	case !ok:
		rep.Err = ErrNoSuchExport.Error()
	case !importAllowed(info.allowed, req.Importer):
		rep.Err = ErrDenied.Error()
	default:
		rep.Frames = info.frames
		rep.Length = info.length
		info.importers++
		d.mImports.Add(1)
	}
	d.served[key] = rep
	d.eth.Send(p, d.node.ID, from, "import-rep", rep)
}

// unimportLocal drops an import: proxy pages are invalidated and the
// exporter's daemon is told to decrement its reference count.
func (d *Daemon) unimportLocal(p *simProc, proc *Process, rec importRec) error {
	p.Sleep(daemonIPCCost)
	proc.lcpState.outPT.freeRange(rec.basePage, rec.pages)
	delete(proc.imports, rec.basePage)
	d.eth.Send(p, d.node.ID, rec.exporterNode, "unimport", unimportMsg{Tag: rec.tag})
	return nil
}

func importAllowed(allowed []ProcID, who ProcID) bool {
	if len(allowed) == 0 {
		return true
	}
	for _, a := range allowed {
		if a == who {
			return true
		}
	}
	return false
}

// reset discards all daemon state, as a crash does: exports died with the
// node's memory, pending waits will never be answered (their waiters are
// killed with the node), and the served cache goes with them. Request ids
// keep counting: every other exporter's served cache still holds this
// node's pre-crash replies under their ids, so an id is never reused in
// the node's life and stands in for a boot incarnation.
func (d *Daemon) reset() {
	if d.proc != nil {
		d.proc.Kill()
		d.proc = nil
	}
	d.exports = make(map[uint32]*exportInfo)
	d.waiting = make(map[int]*importWait)
	d.served = make(map[servedKey]importRep)
	d.drainBox()
}

// drainBox discards datagrams queued for a dead daemon; a rebooted one
// must not act on pre-crash traffic. Called at crash and again at restart
// (messages keep arriving while the node is down).
func (d *Daemon) drainBox() {
	for {
		if _, ok := d.box.TryGet(); !ok {
			break
		}
	}
}
