package lanai

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

func TestSRAMAllocFree(t *testing.T) {
	s := NewSRAM(1024)
	a, err := s.Alloc(100, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(200, "b")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("overlapping allocations")
	}
	if s.Used() != 300 {
		t.Errorf("Used = %d, want 300", s.Used())
	}
	s.Free(a)
	if s.Used() != 200 {
		t.Errorf("Used after free = %d, want 200", s.Used())
	}
	// First-fit reuses the freed hole.
	c, err := s.Alloc(100, "c")
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("first-fit gave %d, want reused hole %d", c, a)
	}
}

func TestSRAMExhaustion(t *testing.T) {
	s := NewSRAM(256 << 10)
	if _, err := s.Alloc(256<<10, "all"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1, "more"); err == nil {
		t.Error("allocation beyond 256KB succeeded")
	}
}

func TestSRAMCoalescing(t *testing.T) {
	s := NewSRAM(300)
	a, _ := s.Alloc(100, "a")
	b, _ := s.Alloc(100, "b")
	c, _ := s.Alloc(100, "c")
	s.Free(a)
	s.Free(c)
	// Fragmented: two 100-byte holes, no 200-byte span.
	if _, err := s.Alloc(200, "big"); err == nil {
		t.Fatal("allocation across fragmented holes succeeded")
	}
	s.Free(b)
	// Now coalesced into one 300-byte span.
	if _, err := s.Alloc(300, "big"); err != nil {
		t.Errorf("coalesced alloc failed: %v", err)
	}
}

func TestSRAMFreeUnknownPanics(t *testing.T) {
	s := NewSRAM(100)
	defer func() {
		if recover() == nil {
			t.Error("Free of unknown offset did not panic")
		}
	}()
	s.Free(50)
}

func TestSRAMBytesLiveSlice(t *testing.T) {
	s := NewSRAM(100)
	off, _ := s.Alloc(10, "x")
	copy(s.Bytes(off, 10), "0123456789")
	if string(s.Bytes(off, 10)) != "0123456789" {
		t.Error("Bytes is not a live view")
	}
}

func TestSRAMAllocationsSummary(t *testing.T) {
	s := NewSRAM(1000)
	s.Alloc(100, "sendq")
	s.Alloc(100, "sendq")
	s.Alloc(50, "tlb")
	sum := s.Allocations()
	if sum["sendq"] != 200 || sum["tlb"] != 50 {
		t.Errorf("Allocations = %v", sum)
	}
}

// Property: any sequence of allocs and frees conserves bytes and never
// hands out overlapping regions.
func TestSRAMAllocProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSRAM(64 << 10)
		type alloc struct{ off, size int }
		var live []alloc
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op/3) % len(live)
				s.Free(live[i].off)
				live = append(live[:i], live[i+1:]...)
			} else {
				size := int(op)%4096 + 1
				off, err := s.Alloc(size, "p")
				if err != nil {
					continue
				}
				for _, a := range live {
					if off < a.off+a.size && a.off < off+size {
						return false // overlap
					}
				}
				live = append(live, alloc{off, size})
			}
		}
		total := 0
		for _, a := range live {
			total += a.size
		}
		return s.Used() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func newBoard(t *testing.T) (*sim.Engine, *Board, *mem.Physical) {
	t.Helper()
	e := sim.NewEngine()
	prof := hw.Default()
	net := myrinet.New(e, prof)
	sw := net.AddSwitch(8)
	nic := net.AddNIC()
	if err := net.AttachNIC(nic, sw, 0); err != nil {
		t.Fatal(err)
	}
	pm := mem.NewPhysical(64 * mem.PageSize)
	pci := bus.New(e, "pci")
	return e, NewBoard(e, prof, nic, pm, pci), pm
}

func TestHostToSRAMAndBack(t *testing.T) {
	e, b, pm := newBoard(t)
	f, _ := pm.AllocFrame()
	pm.Pin(f)
	pa := mem.PhysAddr(f) << mem.PageShift
	if err := pm.Write(pa, []byte("dma payload")); err != nil {
		t.Fatal(err)
	}
	off, _ := b.SRAM.Alloc(64, "staging")
	e.Go("lcp", func(p *sim.Proc) {
		if err := b.HostToSRAM(p, pa, off, 11); err != nil {
			t.Errorf("HostToSRAM: %v", err)
		}
		if string(b.SRAM.Bytes(off, 11)) != "dma payload" {
			t.Error("SRAM contents wrong after host DMA")
		}
		// Modify and DMA back.
		copy(b.SRAM.Bytes(off, 3), "DMA")
		if err := b.SRAMToHost(p, off, pa, 11); err != nil {
			t.Errorf("SRAMToHost: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if err := pm.Read(pa, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("DMA payload")) {
		t.Errorf("host memory = %q", got)
	}
}

func TestDMARejectsUnpinnedFrames(t *testing.T) {
	e, b, pm := newBoard(t)
	f, _ := pm.AllocFrame()
	pa := mem.PhysAddr(f) << mem.PageShift
	off, _ := b.SRAM.Alloc(64, "staging")
	e.Go("lcp", func(p *sim.Proc) {
		if err := b.HostToSRAM(p, pa, off, 8); err == nil {
			t.Error("DMA from unpinned frame succeeded")
		}
		if err := b.SRAMToHost(p, off, pa, 8); err == nil {
			t.Error("DMA to unpinned frame succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDMATimingAsymmetry(t *testing.T) {
	// Host->SRAM (PCI reads) must be slower than SRAM->host (writes) for
	// the same size; the 4 KB read costs ~50us (82 MB/s, the paper's
	// user-bandwidth limit).
	e, b, pm := newBoard(t)
	f, _ := pm.AllocFrame()
	pm.Pin(f)
	pa := mem.PhysAddr(f) << mem.PageShift
	off, _ := b.SRAM.Alloc(mem.PageSize, "staging")
	var readT, writeT sim.Time
	e.Go("lcp", func(p *sim.Proc) {
		start := p.Now()
		if err := b.HostToSRAM(p, pa, off, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		readT = p.Now() - start
		start = p.Now()
		if err := b.SRAMToHost(p, off, pa, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		writeT = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readT <= writeT {
		t.Errorf("read dir %v not slower than write dir %v", readT, writeT)
	}
	mbps := mem.PageSize / readT.Seconds() / 1e6
	if mbps < 80 || mbps > 84 {
		t.Errorf("4KB host->SRAM = %.1f MB/s, want ~82", mbps)
	}
}

func TestInterruptDelivery(t *testing.T) {
	e, b, _ := newBoard(t)
	var at sim.Time = -1
	e.At(10, func() { b.RaiseInterrupt("tlb-miss", func() { at = e.Now() }) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Errorf("interrupt serviced at %v, want 10", at)
	}
	if n := b.mInterrupts.Value(); n != 1 {
		t.Errorf("interrupts = %d, want 1", n)
	}
}

func TestSendPacketReachesWire(t *testing.T) {
	e := sim.NewEngine()
	prof := hw.Default()
	net := myrinet.New(e, prof)
	sw := net.AddSwitch(8)
	nicA, nicB := net.AddNIC(), net.AddNIC()
	if err := net.AttachNIC(nicA, sw, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachNIC(nicB, sw, 1); err != nil {
		t.Fatal(err)
	}
	pm := mem.NewPhysical(16 * mem.PageSize)
	pci := bus.New(e, "pci")
	b := NewBoard(e, prof, nicA, pm, pci)
	var got *myrinet.Packet
	e.Go("recv", func(p *sim.Proc) { got = nicB.RX.Get(p) })
	e.Go("lcp", func(p *sim.Proc) {
		b.SendPacket(p, nicB.ID, []byte{1}, []byte("via board"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || string(got.Payload) != "via board" {
		t.Fatalf("packet not delivered: %v", got)
	}
}

// reliablePair attaches two boards with the link layer on to either end of
// a chain of switches (port 7 forward, port 6 back): a to port 0 of the
// first, b to port 1 of the last. route leads from a to b.
func reliablePair(t *testing.T, switches int, cfg ReliabilityConfig) (e *sim.Engine, net *myrinet.Network, a, b *Board, route []byte) {
	t.Helper()
	e = sim.NewEngine()
	prof := hw.Default()
	net = myrinet.New(e, prof)
	chain := make([]*myrinet.Switch, switches)
	for i := range chain {
		chain[i] = net.AddSwitch(8)
		if i > 0 {
			if err := net.ConnectSwitches(chain[i-1], 7, chain[i], 6); err != nil {
				t.Fatal(err)
			}
			route = append(route, 7)
		}
	}
	route = append(route, 1)
	var boards [2]*Board
	for i, sw := range []*myrinet.Switch{chain[0], chain[switches-1]} {
		nic := net.AddNIC()
		if err := net.AttachNIC(nic, sw, i); err != nil {
			t.Fatal(err)
		}
		boards[i] = NewBoard(e, prof, nic, mem.NewPhysical(16*mem.PageSize), bus.New(e, "pci"))
		if _, err := boards[i].EnableReliability(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return e, net, boards[0], boards[1], route
}

// Two traffic classes toward one peer are two conversations: each keeps
// its own sequence stream at the receiver, and an ack trims only the
// window of the class it names. The peer is seven switches away: an ack
// must find its window however long the route.
func TestClassesKeepIndependentWindows(t *testing.T) {
	e, _, a, b, route := reliablePair(t, 7, DefaultReliability())
	var got []string
	b.StartReceiver("b:rx", func(data []byte, _ *myrinet.Packet) { got = append(got, string(data)) })
	a.StartReceiver("a:rx", func([]byte, *myrinet.Packet) {}) // consumes the acks
	send := func(p *sim.Proc, class int, msg string) {
		if err := a.SendFrameCharged(p, b.NIC.ID, route, append(a.NewFrame(len(msg)), msg...), class); err != nil {
			t.Error(err)
		}
	}
	e.Go("a:tx", func(p *sim.Proc) {
		// Class 1 sends sequences 0-2, which the every-4th-packet cadence
		// leaves unacknowledged; class 0 then sends its own 0-3, whose
		// fourth packet draws an ack.
		for i := 0; i < 3; i++ {
			send(p, 1, "one")
		}
		for i := 0; i < 4; i++ {
			send(p, 0, "zero")
		}
		// Well inside the 200 us initial timeout: the class 0 ack is back,
		// nothing has been retransmitted.
		p.Sleep(100 * sim.Microsecond)
		rl := a.Reliable()
		if rl.Unacked(0) != 0 || rl.Unacked(1) != 3 {
			t.Errorf("unacked = %d in class 0 and %d in class 1, want 0 and 3", rl.Unacked(0), rl.Unacked(1))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m := b.Reliable().m; m.deliveries.Value() != 7 || m.gapDrops.Value() != 0 {
		t.Errorf("receiver took %d in sequence with %d gap drops, want 7 and 0", m.deliveries.Value(), m.gapDrops.Value())
	}
	if len(got) != 7 {
		t.Errorf("%d deliveries, want 7: %q", len(got), got)
	}
	if rl := a.Reliable(); rl.Unacked(0) != 0 || rl.Unacked(1) != 0 {
		t.Errorf("windows still hold %d and %d packets once quiet", rl.Unacked(0), rl.Unacked(1))
	}
}

// A bit error on a reliable link must damage one transmission, not the
// frame: the retransmit window holds the very buffer that went out, so a
// flip made in place would be resent under a CRC computed over the damage
// and delivered as good data.
func TestFaultedFrameLeavesRetransmitWindowIntact(t *testing.T) {
	cfg := DefaultReliability()
	cfg.AckDelay = 25 * sim.Microsecond // a lone packet is acknowledged promptly, not by a second timeout
	e, net, a, b, route := reliablePair(t, 1, cfg)
	payload := bytes.Repeat([]byte("chunk "), 600)

	var got [][]byte
	b.StartReceiver("b:rx", func(data []byte, _ *myrinet.Packet) { got = append(got, data) })
	a.StartReceiver("a:rx", func([]byte, *myrinet.Packet) {}) // consumes the acks
	e.Go("a:tx", func(p *sim.Proc) {
		pl := fault.NewPlan(e, 1)
		net.SetFaults(pl)
		pl.CorruptNextOn(a.NIC.ID, 1)
		frame := append(a.NewFrame(len(payload)), payload...)
		if err := a.SendFrameCharged(p, b.NIC.ID, route, frame, 0); err != nil {
			t.Error(err)
			return
		}
		// The damaged first transmission is on the wire; the window's copy
		// is what the timer will resend.
		for _, st := range a.Reliable().tx {
			if len(st.unacked) != 1 || !bytes.Equal(st.unacked[0].frame[linkHdrSize:], payload) {
				t.Error("retransmit window does not hold the original bytes after a faulted injection")
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if drops, retx := b.Reliable().m.corruptDrops.Value(), a.Reliable().m.retransmits.Value(); drops != 1 || retx != 1 {
		t.Errorf("corrupt drops = %d, retransmits = %d, want 1 and 1", drops, retx)
	}
	if len(got) != 1 || !bytes.Equal(got[0], payload) {
		t.Errorf("%d deliveries, want exactly one carrying the original bytes", len(got))
	}
}

// A retransmit round is a chain of continuations, not a process: a run
// whose first transmission is damaged, so that the timer resends the whole
// window of eight, costs the engine the goroutine handoffs and self-resumes
// of a clean run — the sender's own — and nothing more.
func TestRetransmitRoundCostsNoHandoff(t *testing.T) {
	run := func(lossy bool) (sim.SchedStats, int64) {
		cfg := DefaultReliability()
		cfg.AckDelay = 25 * sim.Microsecond
		e, net, a, b, route := reliablePair(t, 1, cfg)
		if lossy {
			pl := fault.NewPlan(e, 1)
			net.SetFaults(pl)
			pl.CorruptNextOn(a.NIC.ID, 1)
		}
		delivered := 0
		b.StartReceiver("b:rx", func([]byte, *myrinet.Packet) { delivered++ })
		a.StartReceiver("a:rx", func([]byte, *myrinet.Packet) {})
		e.Go("a:tx", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				frame := append(a.NewFrame(1024), make([]byte, 1024)...)
				if err := a.SendFrameCharged(p, b.NIC.ID, route, frame, 0); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if delivered != 8 {
			t.Errorf("lossy=%v: %d frames delivered, want 8", lossy, delivered)
		}
		return e.SchedStats(), a.Reliable().m.retransmits.Value()
	}
	clean, _ := run(false)
	lossy, retx := run(true)
	if retx != 8 {
		t.Errorf("the damaged run retransmitted %d frames, want the whole window of 8", retx)
	}
	if lossy.Handoffs != clean.Handoffs || lossy.SelfResumes != clean.SelfResumes {
		t.Errorf("a retransmit round costs %d handoffs and %d self-resumes: lossy run %d and %d, clean run %d and %d",
			lossy.Handoffs-clean.Handoffs, lossy.SelfResumes-clean.SelfResumes,
			lossy.Handoffs, lossy.SelfResumes, clean.Handoffs, clean.SelfResumes)
	}
	t.Logf("lossy and clean run: %d and %d handoffs, %d and %d self-resumes",
		lossy.Handoffs, clean.Handoffs, lossy.SelfResumes, clean.SelfResumes)
}
