// Package fm models Illinois Fast Messages 2.0 on the simulated Myrinet
// hardware (§7). FM's design points, all reflected here:
//
//   - programmed I/O on the send side: the host writes each packet into
//     LANai memory word by word, avoiding send-side pinning but capping
//     send bandwidth at the MMIO write rate;
//   - small packets (128 bytes) and a streaming interface;
//   - receive-side DMA into a pinned receive ring, after which a handler
//     copies the data into the user's data structures (the copy VMMC
//     avoids by letting senders target exported user memory directly);
//   - reliable delivery with credit-based flow control;
//   - no protection: one user process per node owns the interface.
package fm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/baselines/testbed"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// Protocol geometry and calibrated software costs.
const (
	// PacketBytes is FM's small fixed buffer size (§7: 128 bytes),
	// including the header.
	PacketBytes = 128
	headerBytes = 12
	// PayloadBytes is the data carried per packet.
	PayloadBytes = PacketBytes - headerBytes

	// CreditWindow packets may be outstanding; the receiver returns
	// credits in batches.
	CreditWindow = 64
	creditBatch  = 16

	ringSlots = 256
)

var (
	sendLibCost  = sim.Micros(2.8) // FM_send library path before the PIO
	lanaiSend    = sim.Micros(1.2) // LANai: frame packet, start injection
	lanaiRecv    = sim.Micros(1.0) // LANai: receive path before ring DMA
	extractCost  = sim.Micros(2.4) // FM_extract dispatch to the handler
	pollInterval = sim.Micros(0.3)
)

// System is a pair of FM endpoints on the shared testbed rig.
type System struct {
	Rig *testbed.Rig
	Eps [2]*Endpoint
}

// Endpoint is one node's FM state: the receive ring and reassembly
// buffers, plus sender credits toward the peer.
type Endpoint struct {
	host *testbed.Host
	peer *Endpoint

	// window and batch implement the credit flow control: window packets
	// may be outstanding; the receiver returns credits in batches. Tests
	// shrink them to force stalls.
	window, batch int
	credits       int
	creditsCond   *sim.Cond

	// injectq decouples the host's PIO (which dominates send bandwidth)
	// from the LANai's framing and injection of the previous packet.
	injectq *sim.Queue[[]byte]

	ring      []message // completed messages awaiting Extract
	ringBytes int
	partial   map[uint32][]byte // msgID -> bytes received so far
	nextMsgID uint32
	unacked   int // data packets received since last credit return

	// Stats.
	PacketsSent, PacketsRecv int64
	CreditStalls             int64
}

type message struct {
	data []byte
}

// New builds a two-node FM system and starts the receive engines.
func New(eng *sim.Engine, rig *testbed.Rig) *System {
	s := &System{Rig: rig}
	for i := 0; i < 2; i++ {
		s.Eps[i] = &Endpoint{
			host:        rig.Hosts[i],
			window:      CreditWindow,
			batch:       creditBatch,
			credits:     CreditWindow,
			creditsCond: sim.NewCond(eng),
			injectq:     sim.NewQueue[[]byte](eng, fmt.Sprintf("fm:inj:%d", i)),
			partial:     make(map[uint32][]byte),
		}
	}
	s.Eps[0].peer = s.Eps[1]
	s.Eps[1].peer = s.Eps[0]
	for i := 0; i < 2; i++ {
		ep := s.Eps[i]
		// The LANai injector frames and injects packets the host PIO'd
		// into SRAM, overlapping the host's PIO of the next packet.
		eng.Go(fmt.Sprintf("fm:inject:%d", i), func(p *sim.Proc) {
			p.SetDaemon(true)
			for {
				pkt := ep.injectq.Get(p)
				p.Sleep(lanaiSend)
				ep.host.Board.SendPacket(p, ep.host.Peer, ep.host.Route, pkt)
				ep.PacketsSent++
			}
		})
		ep.host.StartRX(fmt.Sprintf("fm:%d", i), ep.handlePacket)
	}
	return s
}

// Packet types.
const (
	ptData   = 1
	ptCredit = 2
)

// header leads every packet: its type, a zero pad byte, then (on data
// packets) the message id, the message's total length and the packet's
// index within the message.
type header struct {
	Typ   byte
	MsgID uint32
	Total uint32
	Index uint16
}

// appendTo appends the header's headerBytes-byte wire form to b.
func (h header) appendTo(b []byte) []byte {
	b = append(b, h.Typ, 0)
	b = binary.BigEndian.AppendUint32(b, h.MsgID)
	b = binary.BigEndian.AppendUint32(b, h.Total)
	return binary.BigEndian.AppendUint16(b, h.Index)
}

// decodeHeader reads a packet's header, refusing one too short or with
// its pad byte set.
func decodeHeader(b []byte) (header, bool) {
	if len(b) < headerBytes || b[1] != 0 {
		return header{}, false
	}
	return header{
		Typ:   b[0],
		MsgID: binary.BigEndian.Uint32(b[2:]),
		Total: binary.BigEndian.Uint32(b[6:]),
		Index: binary.BigEndian.Uint16(b[10:]),
	}, true
}

// Send streams data to the peer as 128-byte packets pushed with
// programmed I/O. It blocks while the credit window is exhausted
// (reliable, flow-controlled delivery).
func (ep *Endpoint) Send(p *sim.Proc, data []byte) {
	host := ep.host
	p.Sleep(sendLibCost)
	msgID := ep.nextMsgID
	ep.nextMsgID++
	total := len(data)
	for off := 0; off < total || (total == 0 && off == 0); off += PayloadBytes {
		for ep.credits == 0 {
			ep.CreditStalls++
			ep.creditsCond.Wait(p)
		}
		ep.credits--
		n := total - off
		if n > PayloadBytes {
			n = PayloadBytes
		}
		h := header{Typ: ptData, MsgID: msgID, Total: uint32(total), Index: uint16(off / PayloadBytes)}
		pkt := append(h.appendTo(make([]byte, 0, headerBytes+n)), data[off:off+n]...)
		// The host writes header and payload into LANai SRAM word by
		// word — FM's PIO send (§7: "programmed I/O avoids the need for
		// pinning pages on the sender side"). Framing and injection of
		// the previous packet proceed on the LANai concurrently.
		host.CPU.MMIOWriteBytes(p, len(pkt))
		ep.injectq.Put(pkt)
		if total == 0 {
			break
		}
	}
}

// handlePacket is the endpoint's LANai receive handler: DMA each arriving
// data packet into the pinned ring, reassemble messages, and return
// credits in batches. Credit packets update the local sender's window.
func (ep *Endpoint) handlePacket(p *sim.Proc, pk *myrinet.Packet) {
	host := ep.host
	h, ok := decodeHeader(pk.Payload)
	if !ok || !pk.CheckCRC() {
		return
	}
	switch h.Typ {
	case ptCredit:
		ep.credits += ep.batch
		if ep.credits > ep.window {
			ep.credits = ep.window
		}
		ep.creditsCond.Broadcast()
	case ptData:
		p.Sleep(lanaiRecv)
		// DMA into the pinned receive ring.
		host.Board.HostDMA.TransferWith(p, len(pk.Payload), host.Prof.LANaiToHost)
		ep.PacketsRecv++
		ep.partial[h.MsgID] = append(ep.partial[h.MsgID], pk.Payload[headerBytes:]...)
		if len(ep.partial[h.MsgID]) >= int(h.Total) {
			if len(ep.ring) < ringSlots {
				ep.ring = append(ep.ring, message{data: ep.partial[h.MsgID][:h.Total]})
			}
			delete(ep.partial, h.MsgID)
		}
		ep.unacked++
		if ep.unacked >= ep.batch {
			ep.unacked = 0
			host.Board.SendPacket(p, host.Peer, host.Route, header{Typ: ptCredit}.appendTo(make([]byte, 0, headerBytes)))
		}
	}
}

// Extract polls for completed messages and runs the handler over up to max
// of them; the handler copy out of the pinned ring into user data
// structures is charged at bcopy rate (§7 — the copy VMMC does not pay).
// It blocks until at least one message is handled.
func (ep *Endpoint) Extract(p *sim.Proc, max int) [][]byte {
	p.PollUntil(pollInterval, 0, nil, func() bool { return len(ep.ring) > 0 })
	var out [][]byte
	for len(ep.ring) > 0 && len(out) < max {
		m := ep.ring[0]
		ep.ring = ep.ring[1:]
		p.Sleep(extractCost)
		ep.host.CPU.Bcopy(p, len(m.data))
		out = append(out, m.data)
		// Flush leftover credits for the drained packets promptly.
	}
	return out
}
