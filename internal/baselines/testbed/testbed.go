// Package testbed provides the shared two-node hardware rig the three
// related-work protocol models (Myrinet API, FM, PM) run on: the same
// simulated Myrinet boards and PCI buses as the VMMC implementation, so
// the Section 7 comparison varies only the protocol design.
package testbed

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/hostcpu"
	"repro/internal/hw"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// Host is one endpoint: CPU, memory, PCI bus and Myrinet board.
type Host struct {
	ID    int
	Eng   *sim.Engine
	Prof  hw.Profile
	Phys  *mem.Physical
	PCI   *bus.Bus
	CPU   *hostcpu.CPU
	Board *lanai.Board
	// Peer is the other host's NIC id, and Route reaches it.
	Peer  int
	Route []byte
}

// Rig is a pair of hosts on one switch.
type Rig struct {
	Eng   *sim.Engine
	Prof  hw.Profile
	Net   *myrinet.Network
	Hosts [2]*Host
}

// New builds the rig. Routes are set statically (the mapping phase is
// exercised by the VMMC boot path; baselines start past it).
func New(eng *sim.Engine, prof hw.Profile) (*Rig, error) {
	r := &Rig{Eng: eng, Prof: prof, Net: myrinet.New(eng, prof)}
	sw := r.Net.AddSwitch(8)
	for i := 0; i < 2; i++ {
		nic := r.Net.AddNIC()
		if err := r.Net.AttachNIC(nic, sw, i); err != nil {
			return nil, err
		}
		pci := bus.New(eng, fmt.Sprintf("pci:%d", i))
		phys := mem.NewPhysical(16 << 20)
		r.Hosts[i] = &Host{
			ID:    i,
			Eng:   eng,
			Prof:  prof,
			Phys:  phys,
			PCI:   pci,
			CPU:   hostcpu.New(eng, prof, pci),
			Board: lanai.NewBoard(eng, prof, nic, phys, pci),
			Peer:  1 - i,
			Route: []byte{byte(1 - i)},
		}
	}
	return r, nil
}

// StartRX starts the host's two-stage receive path: the board's receive
// engine, which moves arriving packets into SRAM at wire rate (the
// net-to-SRAM DMA engine runs concurrently with the LANai CPU), and a
// handler process running fn per packet. Splitting the stages lets the
// drain of packet k+1 overlap the processing of packet k, as on the real
// board.
func (h *Host) StartRX(name string, fn func(p *sim.Proc, pk *myrinet.Packet)) {
	drained := sim.NewQueue[*myrinet.Packet](h.Eng, name+":drained")
	h.Board.StartReceiver(name+":drain", func(_ []byte, pk *myrinet.Packet) { drained.Put(pk) })
	h.Eng.Go(name+":handler", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			fn(p, drained.Get(p))
		}
	})
}

// PinnedRegion allocates a physically contiguous, pinned region of n
// bytes on the host and returns its base physical address. The baseline
// protocols allocate their DMA staging rings this way at boot, which is
// what lets PM use transfer units larger than a page (§7).
func (h *Host) PinnedRegion(n int) (mem.PhysAddr, error) {
	pages := (n + mem.PageSize - 1) / mem.PageSize
	first, err := h.Phys.AllocContiguousFrames(pages)
	if err != nil {
		return 0, err
	}
	for i := 0; i < pages; i++ {
		h.Phys.Pin(first + i)
	}
	return mem.PhysAddr(first) << mem.PageShift, nil
}
