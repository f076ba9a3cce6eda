// Package shrimp models VMMC on the SHRIMP multicomputer, the paper's
// comparison platform (§6): a custom network interface on the EISA bus
// whose deliberate-update transfers are initiated entirely in hardware.
//
// The contrasts with the Myrinet implementation that §6 draws are all
// present in the model:
//
//   - a send is initiated with just two memory-mapped I/O writes; the
//     hardware state machine verifies permissions, indexes the outgoing
//     page table and starts sending in ~2-3 us total — no queue scanning,
//     no software translation;
//   - the destination proxy space is part of the sender's virtual address
//     space, with virtual memory mappings providing protection, so the OS
//     must maintain special proxy mappings (more OS support than Myrinet);
//   - a send spanning multiple pages must be re-initiated with two writes
//     per page (the Myrinet LCP takes one request for up to 8 MB);
//   - the EISA bus caps user-to-user bandwidth at 23 MB/s, which the
//     hardware state machine delivers in full — no software state machine
//     eating the last 2%;
//   - because the two initiating writes are not atomic, the state machine
//     must be invalidated on context switch (modeled as a per-switch cost
//     hook), whereas Myrinet's per-process queues need no such thing.
//
// Data moves for real between simulated address spaces so the same
// integrity and protection tests run against both platforms.
package shrimp

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Errors mirror the VMMC library's where behaviour matches.
var (
	ErrNotImported  = errors.New("shrimp: proxy address not imported")
	ErrOutOfRange   = errors.New("shrimp: transfer exceeds imported buffer")
	ErrDenied       = errors.New("shrimp: import denied")
	ErrNoSuchExport = errors.New("shrimp: no matching export")
	ErrBadBuffer    = errors.New("shrimp: invalid buffer")
)

// System is a SHRIMP multicomputer: nodes on a fast, fixed-latency
// backplane network.
type System struct {
	Eng   *sim.Engine
	Prof  hw.SHRIMPProfile
	Nodes []*Node
}

// Node is one SHRIMP node: Pentium host, EISA bus, SHRIMP interface.
type Node struct {
	ID   int
	sys  *System
	Phys *mem.Physical
	EISA *bus.Bus
	// DMA is the interface's EISA data engine.
	DMA *bus.DMAEngine

	// Activity is broadcast when the interface deposits data into the
	// node's memory, so pollers can park while idle.
	Activity *sim.Cond

	exports map[uint32]*export
	procs   []*Process
}

type export struct {
	proc    *Process
	va      mem.VirtAddr
	length  int
	allowed []int // importer node ids; nil = all
	frames  []int
}

// Process is a user process on a SHRIMP node.
type Process struct {
	Node    *Node
	AS      *mem.AddressSpace
	imports map[int]*importRec // key: proxy base page
	// proxyBrk allocates proxy pages within the sender's own address
	// space (§6: destination space is part of the sender's VA space).
	proxyBrk int
}

type importRec struct {
	destNode int
	basePage int
	pages    int
	length   int
	frames   []int
}

// ProxyAddr is a destination address in the sender's proxy region.
type ProxyAddr uint64

func (a ProxyAddr) page() int { return int(a >> mem.PageShift) }

// New builds an n-node SHRIMP system.
func New(eng *sim.Engine, prof hw.SHRIMPProfile, n, memBytes int) *System {
	s := &System{Eng: eng, Prof: prof}
	for i := 0; i < n; i++ {
		eisa := bus.New(eng, fmt.Sprintf("eisa:%d", i))
		node := &Node{
			ID:       i,
			sys:      s,
			Phys:     mem.NewPhysical(memBytes),
			EISA:     eisa,
			DMA:      bus.NewDMAEngine(eng, fmt.Sprintf("shrimp%d:dma", i), prof.DMA, eisa),
			Activity: sim.NewCond(eng),
			exports:  make(map[uint32]*export),
		}
		s.Nodes = append(s.Nodes, node)
	}
	return s
}

// NewProcess creates a process on the node.
func (n *Node) NewProcess() *Process {
	p := &Process{
		Node:    n,
		AS:      mem.NewAddressSpace(n.Phys),
		imports: make(map[int]*importRec),
	}
	n.procs = append(n.procs, p)
	return p
}

// Malloc allocates page-aligned virtual memory.
func (p *Process) Malloc(nbytes int) (mem.VirtAddr, error) { return p.AS.Alloc(nbytes) }

// Write stores into the process's memory.
func (p *Process) Write(va mem.VirtAddr, data []byte) error { return p.AS.WriteBytes(va, data) }

// Read loads from the process's memory.
func (p *Process) Read(va mem.VirtAddr, nbytes int) ([]byte, error) {
	return p.AS.ReadBytes(va, nbytes)
}

// Export publishes [va, va+n) as a receive buffer under tag. The pages are
// locked and the incoming mappings installed (same export-import protocol
// and daemon code as the Myrinet implementation, §6).
func (p *Process) Export(sp *sim.Proc, tag uint32, va mem.VirtAddr, n int, allowedNodes []int) error {
	if va.Offset() != 0 || n <= 0 || !p.AS.Mapped(va, n) {
		return ErrBadBuffer
	}
	span := mem.PageSpan(va, n)
	frames := make([]int, span)
	for i := 0; i < span; i++ {
		pa, err := p.AS.Translate(va + mem.VirtAddr(i*mem.PageSize))
		if err != nil {
			return err
		}
		p.Node.Phys.Pin(pa.Frame())
		frames[i] = pa.Frame()
	}
	p.Node.exports[tag] = &export{proc: p, va: va, length: n, allowed: allowedNodes, frames: frames}
	sp.Sleep(30 * sim.Microsecond) // daemon IPC, as on Myrinet
	return nil
}

// Import maps a remote export into the sender's proxy region. The OS
// installs proxy mappings into the sender's address space (§6: more OS
// support than the Myrinet implementation needs).
func (p *Process) Import(sp *sim.Proc, node int, tag uint32) (ProxyAddr, int, error) {
	sp.Sleep(2 * sim.Millisecond) // daemon round trip over Ethernet
	remote := p.Node.sys.Nodes[node]
	exp, ok := remote.exports[tag]
	if !ok {
		return 0, 0, ErrNoSuchExport
	}
	if exp.allowed != nil {
		found := false
		for _, a := range exp.allowed {
			if a == p.Node.ID {
				found = true
			}
		}
		if !found {
			return 0, 0, ErrDenied
		}
	}
	base := p.proxyBrk
	pages := len(exp.frames)
	p.proxyBrk += pages
	p.imports[base] = &importRec{
		destNode: node,
		basePage: base,
		pages:    pages,
		length:   exp.length,
		frames:   exp.frames,
	}
	return ProxyAddr(base) << mem.PageShift, exp.length, nil
}

// findImport resolves a proxy address to its import record.
func (p *Process) findImport(dest ProxyAddr, n int) (*importRec, int, error) {
	for base, rec := range p.imports {
		start := base * mem.PageSize
		if int(dest) >= start && int(dest) < start+rec.pages*mem.PageSize {
			off := int(dest) - start
			if off+n > rec.length {
				return nil, 0, ErrOutOfRange
			}
			return rec, off, nil
		}
	}
	return nil, 0, ErrNotImported
}
