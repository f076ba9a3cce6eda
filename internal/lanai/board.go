package lanai

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Board is one Myrinet PCI interface: SRAM, the three DMA engines, the
// network attachment, and the host interrupt line. The LANai control
// program (implemented by the vmmc package) runs "on" the board as a
// simulation process, paying the board's costs for every operation.
type Board struct {
	Eng  *sim.Engine
	Prof hw.Profile
	SRAM *SRAM
	NIC  *myrinet.NIC

	// HostDMA is the single host-memory <-> SRAM engine. Direction picks
	// the cost profile: PCI master reads (host->SRAM) run at the fitted
	// 82 MB/s-at-4KB curve; writes (SRAM->host) are faster.
	HostDMA *bus.DMAEngine
	// NetSend injects SRAM bytes onto the link; NetRecv drains arriving
	// packets into SRAM. The internal bus runs at twice the CPU clock so
	// the two can operate concurrently with the host engine (§3).
	NetSend *bus.DMAEngine
	NetRecv *bus.DMAEngine

	hostMem *mem.Physical

	// reliable is the optional data-link reliability layer (reliable.go);
	// nil (the paper's configuration) means CRC errors are detected but
	// never recovered (§4.2).
	reliable *ReliableLink
	// linksched is the optional per-class link bandwidth pacer
	// (linksched.go); nil until ConfigureLinkClass installs a budget.
	linksched *LinkScheduler
	// rawFilter, when set, sees every arriving packet before the
	// reliability layer (SetRawFilter). The vmmc self-healing layer uses it
	// for mapping probes and replies, which are not link-layer framed and
	// must bypass the go-back-N filter.
	rawFilter func(pk *myrinet.Packet) (consumed bool, route, reply []byte)

	comp        string // trace component, "lanai<id>"
	mInterrupts *trace.Counter
	mDropped    *trace.Counter
}

// NewBoard assembles a board attached to the given NIC, host memory, and
// host PCI bus.
func NewBoard(eng *sim.Engine, prof hw.Profile, nic *myrinet.NIC, hostMem *mem.Physical, pci *bus.Bus) *Board {
	id := nic.ID
	hostDMA := bus.NewDMAEngine(eng, fmt.Sprintf("lanai%d:host", id), prof.HostToLANai, pci)
	hostDMA.SetTurnaround(prof.HostDMATurnaround)
	b := &Board{
		Eng:     eng,
		Prof:    prof,
		SRAM:    NewSRAM(prof.SRAMSize),
		NIC:     nic,
		HostDMA: hostDMA,
		NetSend: bus.NewDMAEngine(eng, fmt.Sprintf("lanai%d:netsend", id), prof.NetSend, nil),
		NetRecv: bus.NewDMAEngine(eng, fmt.Sprintf("lanai%d:netrecv", id), prof.NetRecv, nil),
		hostMem: hostMem,
		comp:    fmt.Sprintf("lanai%d", id),
	}
	// SRAM occupancy: a gauge whose high-water mark survives frees, plus a
	// counter track in the trace for watching allocation over time.
	sramGauge := eng.Metrics().Gauge(b.comp + "/sram_used_bytes")
	b.SRAM.SetUsageHook(func(used int) {
		sramGauge.Set(float64(used))
		eng.TraceCounter(b.comp, "sram", "sram_used_bytes", float64(used))
	})
	b.mInterrupts = eng.Metrics().Counter(b.comp + "/interrupts")
	b.mDropped = eng.Metrics().Counter(b.comp + "/dma_writes_dropped")
	return b
}

// RaiseInterrupt asserts the board's host interrupt line. The driver's
// service routine fire runs in event context at the current time, after
// the events already scheduled for it; it is expected to charge the host's
// interrupt entry cost itself. name labels the interrupt in the trace.
func (b *Board) RaiseInterrupt(name string, fire func()) {
	b.mInterrupts.Add(1)
	b.Eng.TraceInstant(b.comp, "irq", name)
	b.Eng.Post(0, fire)
}

// HostToSRAM DMAs n bytes from host physical memory at pa into SRAM at
// sramOff: the LANai cannot touch host memory directly and must use this
// engine (§3). The frames under the transfer must be pinned — DMA to
// pageable memory is the classic corruption bug this checks for.
func (b *Board) HostToSRAM(p *sim.Proc, pa mem.PhysAddr, sramOff, n int) error {
	if err := b.readHost(pa, sramOff, n); err != nil {
		return err
	}
	b.HostDMA.TransferWith(p, n, b.Prof.HostToLANai)
	return nil
}

// StartHostToSRAM is HostToSRAM for a caller with no process to block
// (bus.DMAEngine.Start): the same check and copy now, done called in
// event context when the transfer's time is up.
func (b *Board) StartHostToSRAM(label string, pa mem.PhysAddr, sramOff, n int, done func()) error {
	if err := b.readHost(pa, sramOff, n); err != nil {
		return err
	}
	b.HostDMA.Start(label, n, b.Prof.HostToLANai, done)
	return nil
}

// readHost is the data half of a host-to-SRAM DMA: the pinned-frame check
// and the copy, which the model performs when the transfer starts.
func (b *Board) readHost(pa mem.PhysAddr, sramOff, n int) error {
	if err := b.checkPinned(pa, n); err != nil {
		return err
	}
	return b.hostMem.Read(pa, b.SRAM.Bytes(sramOff, n))
}

// SRAMToHost DMAs n bytes from SRAM at sramOff into host physical memory
// at pa (PCI master write direction). The bytes become visible in host
// memory when the transfer completes, not when it is posted — a spinning
// host CPU cannot observe data the bus has not delivered yet. A frame its
// dead process gave back during the transfer gets none of them: the write
// is dropped and counted, where a real OS would have held the frame until
// the DMA ended — the same to every live process.
func (b *Board) SRAMToHost(p *sim.Proc, sramOff int, pa mem.PhysAddr, n int) error {
	if err := b.checkPinned(pa, n); err != nil {
		return err
	}
	reclaims := b.hostMem.Reclaims(pa, n)
	src := b.SRAM.Bytes(sramOff, n)
	b.HostDMA.TransferWith(p, n, b.Prof.LANaiToHost)
	if b.hostMem.Reclaims(pa, n) != reclaims {
		b.mDropped.Add(1)
		return nil
	}
	if err := b.hostMem.Write(pa, src); err != nil {
		return err
	}
	return nil
}

func (b *Board) checkPinned(pa mem.PhysAddr, n int) error {
	if n <= 0 {
		return fmt.Errorf("lanai%d: dma of %d bytes", b.NIC.ID, n)
	}
	first := pa.Frame()
	last := PhysLast(pa, n).Frame()
	for f := first; f <= last; f++ {
		if !b.hostMem.Pinned(f) {
			return fmt.Errorf("lanai%d: DMA touches unpinned frame %d", b.NIC.ID, f)
		}
	}
	return nil
}

// PhysLast returns the address of the last byte of an n-byte range at pa.
func PhysLast(pa mem.PhysAddr, n int) mem.PhysAddr {
	return pa + mem.PhysAddr(n-1)
}

// headroom is the space the link layer claims in front of every payload:
// nothing in the paper's configuration, a frame header with reliability.
func (b *Board) headroom() int {
	if b.reliable != nil {
		return linkHdrSize
	}
	return 0
}

// NewFrame starts an outgoing packet of up to n payload bytes: it returns
// a buffer holding only the link layer's headroom, with room for the
// caller to append the payload. The finished frame goes to
// SendFrameCharged, which takes it over.
func (b *Board) NewFrame(n int) []byte {
	if b.reliable != nil {
		// The retransmit window keeps the frame until it is acknowledged
		// and may resend it meanwhile, so it is never recycled.
		return make([]byte, linkHdrSize, linkHdrSize+n)
	}
	return b.NIC.Buf(n)
}

// PayloadLen is the number of payload bytes in a frame built on NewFrame
// — what pacing charges for, the link headroom excluded.
func (b *Board) PayloadLen(frame []byte) int { return len(frame) - b.headroom() }

// SendPacket injects a copy of payload along route to NIC dst: the
// convenience form for callers that do not build frames (and whose
// receivers do not hand buffers back, so the copy is a plain allocation of
// its own size). The net-send DMA engine feeds the link directly, so wire
// serialization is charged once (inside the NIC injection) plus the
// engine's start cost. With the optional reliability layer enabled, the
// packet goes through its send window instead, and the call can fail with
// ErrPeerUnreachable when the destination's retransmit budget is
// exhausted. Without the layer, sends never fail: the paper's
// configuration fires and forgets (§4.2).
func (b *Board) SendPacket(p *sim.Proc, dst int, route []byte, payload []byte) error {
	h := b.headroom()
	frame := make([]byte, h+len(payload))
	copy(frame[h:], payload)
	return b.SendFrameCharged(p, dst, route, frame, 0)
}

// SendFrameCharged injects a frame built on NewFrame along route to NIC
// dst, within a traffic class whose pacing charge the caller has already
// committed (via LinkScheduler.TryCharge); the board itself never paces.
// With the reliability layer enabled the packet rides the transmit window
// of its (dst, class) conversation, so a class teardown cannot disturb
// other classes' sequence state. Class 0 is the default shared class —
// SendPacket uses it — and is never paced or torn down by class.
//
// The frame changes hands: fire-and-forget, it belongs to the fabric and
// then to whoever receives it; with the reliability layer, to the
// transmit window.
func (b *Board) SendFrameCharged(p *sim.Proc, dst int, route []byte, frame []byte, class int) error {
	if b.reliable != nil {
		return b.reliable.send(p, dst, route, frame, class)
	}
	b.NetSend.TransferWith(p, 0, b.Prof.NetSend) // engine start only
	b.NIC.SendOwned(p, route, frame)
	return nil
}

// SetRawFilter registers a tap consulted on every arriving packet, after
// the receive DMA but before the reliability layer. Returning consumed
// consumes the packet; a non-nil reply is injected along route before the
// receive engine takes the next packet. The filter runs in event context,
// from the receive engine (Receiver), and must not block. Since the
// engine is not the node's control program, the filter keeps working
// while the main control loop is busy elsewhere — which is exactly when
// the self-healing layer needs its mapping responder alive.
func (b *Board) SetRawFilter(fn func(pk *myrinet.Packet) (consumed bool, route, reply []byte)) {
	b.rawFilter = fn
}

// Receiver is the board's receive engine: the net-to-SRAM DMA engine
// draining arriving packets into SRAM concurrently with the LANai
// processor (§3), and what stands between it and the control program —
// the raw filter and the optional link layer. It is silicon, not a
// program, so it runs as a chain of continuations, one packet at a time:
// take the next packet off the NIC's RX queue, drain it through NetRecv,
// filter it, and hand what the link layer lets through to deliver. Every
// step that holds virtual time posts its event where a process draining
// the queue would have.
type Receiver struct {
	b       *Board
	label   string
	deliver func(data []byte, pk *myrinet.Packet)
	get     *sim.Getter[*myrinet.Packet]
	stopped bool

	// The packet in hand and, when up is set, the payload that goes up once
	// the link layer's ack for it is out.
	pk   *myrinet.Packet
	data []byte
	up   bool

	onDrained, onHeld, onSent func()
}

// StartReceiver starts the board's receive engine. deliver runs in event
// context with every packet the raw filter and link layer pass up: its
// VMMC-visible bytes (pk.Payload, unless the link layer unwrapped it) and
// the packet, whose CRC the caller still checks, as the paper's LCP does,
// and which it releases (myrinet.NIC.Release) once done with both.
// label names the engine as the holder of the DMA engines and the link.
// Like a process spawned now, it takes its first packet after the events
// already scheduled for this instant.
func (b *Board) StartReceiver(label string, deliver func(data []byte, pk *myrinet.Packet)) *Receiver {
	r := &Receiver{b: b, label: label, deliver: deliver}
	r.get = b.NIC.RX.NewGetter(r.drain)
	r.onDrained, r.onHeld, r.onSent = r.filter, r.admit, r.next
	b.Eng.Post(0, r.get.Get)
	return r
}

// Stop ends the engine, as a crash does: a wait for the next packet is
// withdrawn, and a packet already in hand goes nowhere once the step in
// flight — a drain, the link layer's hold, an ack on its way out — has run
// out its time.
func (r *Receiver) Stop() {
	r.stopped = true
	r.get.Cancel()
}

// drain moves pk into SRAM staging: the LANai stores a packet fully before
// it looks at it, and back-to-back packets serialize on the engine.
func (r *Receiver) drain(pk *myrinet.Packet) {
	r.pk = pk
	r.b.NetRecv.Start(r.label, len(pk.Payload), r.b.Prof.NetRecv, r.onDrained)
}

// filter passes the drained packet through the raw filter, then the link
// layer; a data frame costs the link layer its bookkeeping hold first.
func (r *Receiver) filter() {
	if r.stopped {
		return
	}
	b, pk := r.b, r.pk
	if b.rawFilter != nil {
		if consumed, route, reply := b.rawFilter(pk); consumed {
			if reply != nil {
				b.NIC.StartSend(r.label, route, reply, r.onSent)
				return
			}
			r.next()
			return
		}
	}
	switch {
	case b.reliable == nil:
		r.data, r.up = pk.Payload, true
	case b.reliable.receive(pk.Payload, pk.CheckCRC(), b.Eng.Now()):
		b.Eng.Post(rlPerPacketCost, r.onHeld)
		return
	}
	r.next()
}

// admit sequences a data frame after its hold and sends the ack it owes
// before passing the payload up.
func (r *Receiver) admit() {
	if r.stopped {
		return
	}
	rl := r.b.reliable
	data, ack := rl.admit(r.pk.Payload, r.pk.Ingress)
	r.data, r.up = data, data != nil
	if ack == nil {
		r.next()
		return
	}
	rl.sendAck(r.label, myrinet.ReverseRoute(r.pk.Ingress), ack, r.onSent)
}

// next passes the packet in hand up, if it goes up, and takes the next one.
// A packet that does not go up (an ack, a frame the window discards, one
// the raw filter consumed) ends here: it is released.
func (r *Receiver) next() {
	if r.stopped {
		return
	}
	pk, data, up := r.pk, r.data, r.up
	r.pk, r.data, r.up = nil, nil, false
	if up {
		r.deliver(data, pk)
	} else {
		r.b.NIC.Release(pk)
	}
	r.get.Get()
}
