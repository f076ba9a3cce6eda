package vmmc

import (
	"fmt"
	"slices"

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

	// replies pending from remote daemons, keyed by request id; ids are
	// never reused, not even across a restart (see reset).
	nextReq int
	waiting map[int]*importWait

	// proc is the service loop, and releaser gives back the leases of
	// killed processes' imports, pending in releasing; a crash kills both.
	proc, releaser *simProc
	releasing      []importRec

	// Exports registered, leases granted, and import and release requests
	// retransmitted: "node<id>/daemon_exports", "/daemon_imports_served"
	// and "/daemon_import_retries".
	mExports, mImports, mRetries *trace.Counter
}

type exportInfo struct {
	pid      int
	tag      uint32
	baseVA   mem.VirtAddr
	length   int
	frames   []int
	allowed  []ProcID // nil = anyone may import
	notifyOK bool
	leases   []lease // granted, not yet released; nil until the first grant
}

// lease is one granted import, named by the importing node and its request
// id, unique for the node's life: a retransmitted request finds its lease.
type lease struct{ node, reqID int }

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
	Err    error
	Frames []int
	Length int
}

// unimportMsg releases a lease; the exporter acks with an importRep.
type unimportMsg struct {
	ReqID, Lease int
	Tag          uint32
}

type importWait struct {
	done bool
	rep  importRep
	cond *sim.Cond
}

const daemonIPCCost = 30 * sim.Microsecond // local process <-> daemon round trip

// Daemon request recovery over the (possibly lossy) Ethernet: the first
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
				// Acknowledged whether or not the lease is still held, so
				// a release whose ack was lost is acked again.
				if e, ok := d.exports[body.Tag]; ok {
					e.leases = slices.DeleteFunc(e.leases, func(l lease) bool { return l == lease{m.From, body.Lease} })
				}
				d.eth.Send(p, d.node.ID, m.From, "unimport-ack", importRep{ReqID: body.ReqID})
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
func (d *Daemon) exportLocal(p *simProc, proc *Process, tag uint32, va mem.VirtAddr, n int, allowed []ProcID, notifyOK bool) error {
	p.Sleep(daemonIPCCost)
	if va.Offset() != 0 {
		return ErrNotAligned
	}
	if n <= 0 || !proc.AS.Mapped(va, n) {
		return ErrBadBuffer
	}
	if _, dup := d.exports[tag]; dup {
		return ErrAlreadyInUse
	}
	frames, err := d.node.Driver.translateAndLock(proc, va, n)
	if err != nil {
		return err
	}
	d.exports[tag] = &exportInfo{
		pid:      proc.Pid,
		tag:      tag,
		baseVA:   va,
		length:   n,
		frames:   frames,
		allowed:  allowed,
		notifyOK: notifyOK,
	}

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
	return nil
}

// unexportLocal removes an export; it fails while any lease is held.
func (d *Daemon) unexportLocal(p *simProc, proc *Process, tag uint32) error {
	p.Sleep(daemonIPCCost)
	info, ok := proc.export(tag)
	if !ok {
		return ErrNotExported
	}
	if len(info.leases) > 0 {
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

// scrubProcess is the local teardown of a dead process's daemon state
// (KillProcess, and every process of a crashing node): its exports vanish
// with any redirect posted on them and the leases held on them, and its
// imports release their proxy ranges. It returns those imports in
// proxy-page order, for KillProcess to release their leases; a crash sends
// nothing, as exporters drop the node's leases when it restarts. Pure
// state updates, so map-iteration order cannot influence the simulation.
func (d *Daemon) scrubProcess(proc *Process) []importRec {
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
	recs := proc.importsByPage()
	for _, rec := range recs {
		proc.lcpState.outPT.freeRange(rec.basePage, rec.pages)
	}
	clear(proc.imports)
	return recs
}

// releaseLeases gives back the leases of a killed process's imports, one
// at a time and in the order given, as an OS closes a dead process's
// files. One release process per daemon works through the queue; a crash
// kills it (reset), and an unreachable exporter keeps its lease.
func (d *Daemon) releaseLeases(recs []importRec) {
	d.releasing = append(d.releasing, recs...)
	if d.releaser != nil || len(d.releasing) == 0 {
		return
	}
	d.releaser = d.node.Eng.Go(fmt.Sprintf("daemon:%d:release", d.node.ID), func(p *simProc) {
		for ; len(d.releasing) > 0; d.releasing = d.releasing[1:] {
			rec := d.releasing[0]
			_ = d.release(p, rec.exporterNode, rec.tag, rec.lease)
		}
		d.releaser = nil
	})
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
		// Give back the lease the handshake just took; err stands either way.
		_ = d.release(p, exporterNode, tag, rep.ReqID)
		return 0, 0, err
	}
	d.installImport(p, proc, exporterNode, tag, base, rep)
	return ProxyAddr(base) << mem.PageShift, rep.Length, nil
}

// installImport maps the proxy pages from base onto the frame list of an
// import reply — the daemon writes the entries into board SRAM across the
// PCI bus, the final one clipped to the buffer's extent — and records the
// import under the reply's lease. A revalidation installs over the range
// it already holds, which also clears the stale mark.
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
		lease:        rep.ReqID,
		basePage:     base,
		pages:        len(rep.Frames),
	}
}

// requestImport runs the Ethernet half of the import handshake: it asks
// the exporting node's daemon for the frame list under tag, and a lease on
// it. Shared by the initial import and the self-healing layer's
// revalidation.
func (d *Daemon) requestImport(p *simProc, proc *Process, exporterNode int, tag uint32) (importRep, error) {
	d.nextReq++
	return d.request(p, exporterNode, "import-req", d.nextReq,
		importReq{ReqID: d.nextReq, Importer: proc.ID(), Tag: tag})
}

// release gives back the lease an import request took on exporterNode's
// export tag, and returns once the exporter has acknowledged it.
func (d *Daemon) release(p *simProc, exporterNode int, tag uint32, lease int) error {
	d.nextReq++
	_, err := d.request(p, exporterNode, "unimport", d.nextReq,
		unimportMsg{ReqID: d.nextReq, Lease: lease, Tag: tag})
	return err
}

// request sends body to node to's daemon and waits for the reply under
// id, retransmitting through the lossy medium with backoff: the Ethernet
// may lose the request or the reply, and the other daemon answers a
// repeated request as it answered the first (see serveImport).
func (d *Daemon) request(p *simProc, to int, kind string, id int, body any) (importRep, error) {
	w := &importWait{cond: sim.NewCond(d.node.Eng)}
	d.waiting[id] = w
	timeout := importBaseTimeout
	for attempt := 0; !w.done; attempt++ {
		if attempt > importMaxRetries {
			delete(d.waiting, id)
			return importRep{}, ErrDaemonUnreachable
		}
		if attempt > 0 {
			d.mRetries.Add(1)
			d.node.Eng.TraceInstant(fmt.Sprintf("daemon%d", d.node.ID), "daemon", "import_retry")
		}
		d.eth.Send(p, d.node.ID, to, kind, body)
		deadline := d.node.Eng.Now() + timeout
		for !w.done && d.node.Eng.Now() < deadline {
			w.cond.WaitTimeout(p, deadline-d.node.Eng.Now())
		}
		if timeout *= 2; timeout > importMaxTimeout {
			timeout = importMaxTimeout
		}
	}
	return w.rep, w.rep.Err
}

// revalidateImport refreshes a stale import against the exporter's
// restarted daemon: same tag, same proxy range. A fresh handshake takes a
// new lease on the re-export and rewrites the outgoing page-table entries
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
		// Give back the lease the handshake just took; err stands either way.
		_ = d.release(p, rec.exporterNode, rec.tag, rep.ReqID)
		return fmt.Errorf("vmmc: re-export of tag %d spans %d pages, import had %d: %w",
			rec.tag, len(rep.Frames), rec.pages, ErrBadBuffer)
	}
	d.installImport(p, proc, rec.exporterNode, rec.tag, rec.basePage, rep)
	if !rec.stale {
		// The exporter did not restart, so the old lease is still held.
		_ = d.release(p, rec.exporterNode, rec.tag, rec.lease)
	}
	if d.node.heal != nil {
		d.node.heal.noteRevalidation()
	}
	return nil
}

// serveImport answers a remote daemon's import request, granting a lease
// unless the request already holds one: a retransmitted request (its reply
// was lost) is answered again from the export's frames and length, so an
// import takes exactly one lease. Refusals are recomputed, not remembered.
func (d *Daemon) serveImport(p *simProc, from int, req importReq) {
	rep := importRep{ReqID: req.ReqID}
	info, ok := d.exports[req.Tag]
	switch {
	case !ok:
		rep.Err = ErrNoSuchExport
	case len(info.allowed) > 0 && !slices.Contains(info.allowed, req.Importer):
		rep.Err = ErrDenied
	default:
		rep.Frames = info.frames
		rep.Length = info.length
		if l := (lease{from, req.ReqID}); !slices.Contains(info.leases, l) {
			info.leases = append(info.leases, l)
			d.mImports.Add(1)
		}
	}
	d.eth.Send(p, d.node.ID, from, "import-rep", rep)
}

// unimportLocal drops an import: its proxy pages are invalidated, then its
// lease is released on the exporter.
func (d *Daemon) unimportLocal(p *simProc, proc *Process, rec importRec) error {
	p.Sleep(daemonIPCCost)
	proc.lcpState.outPT.freeRange(rec.basePage, rec.pages)
	delete(proc.imports, rec.basePage)
	return d.release(p, rec.exporterNode, rec.tag, rec.lease)
}

// dropLeases forgets every lease node holds on this node's exports: node
// restarted, and its imports died with its processes.
func (d *Daemon) dropLeases(node int) {
	for _, info := range d.exports {
		info.leases = slices.DeleteFunc(info.leases, func(l lease) bool { return l.node == node })
	}
}

// reset discards all daemon state, as a crash does: exports died with the
// node's memory, pending waits will never be answered (their waiters are
// killed with the node), and a release in flight dies with the daemon.
// Request ids keep counting: an id is never reused in the node's life and
// stands in for a boot incarnation, so neither a reply nor a lease from
// before the crash can be taken for a new request's.
func (d *Daemon) reset() {
	for _, proc := range []*simProc{d.proc, d.releaser} {
		if proc != nil {
			proc.Kill()
		}
	}
	d.proc, d.releaser, d.releasing = nil, nil, nil
	d.exports = make(map[uint32]*exportInfo)
	d.waiting = make(map[int]*importWait)
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
