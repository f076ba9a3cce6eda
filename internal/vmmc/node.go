package vmmc

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/ether"
	"repro/internal/hostcpu"
	"repro/internal/hw"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// simProc shortens signatures throughout the package.
type simProc = sim.Proc

// Node is one PC of the cluster: host memory, PCI bus, CPU cost model, the
// Myrinet board, and the trusted VMMC software (LCP, driver, daemon).
type Node struct {
	ID   int
	Eng  *sim.Engine
	Prof hw.Profile

	Phys  *mem.Physical
	PCI   *bus.Bus
	CPU   *hostcpu.CPU
	Board *lanai.Board

	LCP    *LCP
	Driver *Driver
	Daemon *Daemon

	procs   map[int]*Process
	nextPid int

	// crashed marks a node that is down; routes keeps the boot-time
	// routing table so a restart skips remapping the (unchanged) fabric.
	crashed bool
	routes  myrinet.RouteTable

	// heal is the cluster's self-healing service, nil when disabled.
	heal *HealService

	// MemActivity is broadcast whenever the interface deposits data into
	// host memory. Pollers (e.g. the vRPC server) park on it instead of
	// generating an endless stream of poll events while idle; the poll
	// granularity is still charged on wakeup.
	MemActivity *sim.Cond
}

// newNode assembles a node around an attached NIC. The software components
// start later, during cluster boot.
func newNode(eng *sim.Engine, prof hw.Profile, id int, nic *myrinet.NIC, memBytes int, eth *ether.Bus) *Node {
	phys := mem.NewPhysical(memBytes)
	pci := bus.New(eng, fmt.Sprintf("pci:%d", id))
	n := &Node{
		ID:          id,
		Eng:         eng,
		Prof:        prof,
		Phys:        phys,
		PCI:         pci,
		CPU:         hostcpu.New(eng, prof, pci),
		Board:       lanai.NewBoard(eng, prof, nic, phys, pci),
		procs:       make(map[int]*Process),
		MemActivity: sim.NewCond(eng),
	}
	n.Driver = newDriver(n)
	n.Daemon = newDaemon(n, eth)
	return n
}

// start boots the node's LCP with the routes discovered by network mapping.
func (n *Node) start(routes myrinet.RouteTable) error {
	lcp, err := newLCP(n, routes)
	if err != nil {
		return err
	}
	n.LCP = lcp
	n.routes = routes
	n.Daemon.start()
	return nil
}

// Crashed reports whether the node is currently down.
func (n *Node) Crashed() bool { return n.crashed }

// crash models abrupt node death: the NIC goes dark, every process dies
// the way a killed one does and its handle turns permanently stale, the LCP
// and daemon die, and whatever page pin is left vanishes with the rebooting
// OS.
func (n *Node) crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.Board.NIC.SetDown(true)
	for _, proc := range n.procs {
		proc.dead = true
		n.Daemon.scrubProcess(proc)
		proc.release()
	}
	n.LCP.teardown()
	n.Daemon.reset()
	if rl := n.Board.Reliable(); rl != nil {
		rl.Reset()
	}
	n.Phys.ResetPins()
	n.Phys.Touch() // crashed and dead are inputs of the memory-scoped spins
}

// restart brings a crashed node back with a fresh LCP and daemon, reusing
// the routes it last held (boot-time ones, or healed ones when the
// self-healing layer updated them; the heal service additionally refreshes
// them from its latest remap). Pre-crash processes, exports and imports
// are gone; peers must re-import — or revalidate, with healing on.
func (n *Node) restart() error {
	if !n.crashed {
		return nil
	}
	n.Daemon.drainBox()
	if err := n.start(n.routes); err != nil {
		return err
	}
	n.crashed = false
	n.Phys.Touch()
	n.Board.NIC.SetDown(false)
	return nil
}

// ProcLimits partitions the interface's contended budgets for one
// process. The zero value reproduces the legacy first-come-first-served
// defaults: full-depth send queue, full-size TLB, the shared link class.
// Pinning is not partitioned: PinnedFrames counts what each process
// holds.
type ProcLimits struct {
	// SendQueueEntries is the SRAM send-queue ring depth (default 16).
	SendQueueEntries int
	// TLBEntries sizes the per-process software TLB (default 2048;
	// rounded down to an even count for the two-way sets, and floored
	// at twice TLBRefillBatch — a smaller TLB could evict a faulting
	// page with its own refill batch and livelock the transfer).
	TLBEntries int
	// Class is the link traffic class the process's packets ride in:
	// its own reliable-link windows, and (when the board configures the
	// class) its own bandwidth budget. 0 is the shared default class.
	Class int
}

// NewProcess creates a user process on the node and registers it with the
// LCP: a send queue, an outgoing page table and a software TLB are carved
// out of board SRAM, and a pinned status page is set up for completion
// reporting. It fails with ErrProcessLimit when the SRAM budget is
// exhausted — the paper's limit on simultaneous VMMC users per interface —
// and with ErrPidExhausted past the last pid a packet header can name.
func (n *Node) NewProcess(p *sim.Proc) (*Process, error) {
	return n.NewProcessWith(p, ProcLimits{})
}

// NewProcessWith is NewProcess under an explicit resource partition. All
// partial state — SRAM carve, status-page allocation and pin — rolls
// back on any failure, so a rejected admission leaks nothing.
func (n *Node) NewProcessWith(p *sim.Proc, limits ProcLimits) (*Process, error) {
	if n.crashed {
		return nil, ErrNodeDown
	}
	if n.nextPid > maxWireID {
		return nil, ErrPidExhausted
	}
	pid := n.nextPid
	n.nextPid++
	as := mem.NewAddressSpace(n.Phys)

	st, err := n.LCP.registerProcess(pid, limits)
	if err != nil {
		return nil, err
	}

	statusVA, err := as.Alloc(mem.PageSize)
	if err != nil {
		n.LCP.unregisterProcess(pid)
		return nil, err
	}
	if err := as.Pin(statusVA, mem.PageSize); err != nil {
		n.LCP.unregisterProcess(pid)
		return nil, err
	}
	statusPA, err := as.Translate(statusVA)
	if err != nil {
		as.Unpin(statusVA, mem.PageSize)
		n.LCP.unregisterProcess(pid)
		return nil, err
	}
	st.statusPA = statusPA

	proc := &Process{
		Pid:      pid,
		Node:     n,
		AS:       as,
		lcpState: st,
		statusVA: statusVA,
		imports:  make(map[int]importRec),
		handlers: make(map[uint32]NotifyHandler),
		nextSeq:  1,
	}
	n.procs[pid] = proc

	// Registering with the interface costs a handful of MMIO writes plus
	// a daemon round trip charged as local IPC.
	n.CPU.MMIOWriteWords(p, 8)
	p.Sleep(n.Prof.InterruptCost) // driver ioctl to set up the status page
	return proc, nil
}

// Close tears a process down: exports are withdrawn in tag order and
// imports released in proxy-page order, then the LCP slots are freed and
// TLB-locked pages and the status page unpinned. It stops at an export
// still imported, not at a release no daemon acknowledges. The handle is
// dead afterwards, as after a kill.
func (proc *Process) Close(p *sim.Proc) error {
	n := proc.Node
	if proc.dead {
		// A crash, a kill or an earlier Close already tore everything down.
		return nil
	}
	if n.crashed {
		return ErrNodeDown
	}
	for _, tag := range proc.exportTags() {
		if err := proc.Unexport(p, tag); err != nil {
			return err
		}
	}
	for _, rec := range proc.importsByPage() {
		// An unreachable exporter keeps its lease; the process goes anyway.
		_ = n.Daemon.unimportLocal(p, proc, rec)
	}
	proc.dead = true
	proc.release()
	return nil
}

// release is the tail every process teardown ends with — Close after its
// daemon round trips, KillProcess and a node crash after the local scrub:
// TLB translations are invalidated and their page locks and pin counts
// returned, the status page is unpinned, every frame the process mapped
// goes back to the node's pool, zeroed, and the SRAM carve (send queue,
// page table, TLB) is freed. Pure state manipulation: no time passes.
func (proc *Process) release() {
	n := proc.Node
	st := proc.lcpState
	n.Driver.unlock(st, st.tlb.InvalidateAll())
	proc.AS.Unpin(proc.statusVA, mem.PageSize)
	proc.AS.Release()
	n.LCP.unregisterProcess(proc.Pid)
	delete(n.procs, proc.Pid)
}

// KillProcess models abrupt process death — the tenant-crash path. It is
// the scoped counterpart of a whole-node crash: only the victim's state
// is torn down, synchronously and kill-safely, leaving co-resident
// processes' transfers untouched.
//
//   - the in-flight long send, if it is the victim's, is aborted (staged
//     chunks discarded; the status write is suppressed via the gone flag
//     because the status page is unpinned here);
//   - the daemon scrubs the victim's exports and imports locally, and
//     hands the imports, in proxy-page order, to its release process,
//     which gives back their leases over the Ethernet after the kill;
//   - the victim's reliable-link windows — its traffic class's — are
//     dropped silently, never the shared class 0;
//   - TLB translations, page locks, pin counts, status page and SRAM carve
//     go the way Close releases them (release).
//
// All of this is pure state manipulation: no time passes, so the kill is
// atomic; only the release process acts later.
func (n *Node) KillProcess(pid int) {
	proc, ok := n.procs[pid]
	if !ok {
		return
	}
	proc.dead = true
	n.Phys.Touch() // a WaitSend of the victim's must notice
	st := proc.lcpState
	st.gone = true
	if j := n.LCP.job; j != nil && j.st == st {
		j.failed = true
		j.completed = true
		n.LCP.dropStaged(j)
	}
	recs := n.Daemon.scrubProcess(proc)
	if rl := n.Board.Reliable(); rl != nil {
		rl.DropClass(st.limits.Class)
	}
	proc.release()
	n.Daemon.releaseLeases(recs)
	n.LCP.work.Signal()
}

// Process returns the node's process with the given pid.
func (n *Node) Process(pid int) (*Process, bool) {
	pr, ok := n.procs[pid]
	return pr, ok
}
