// Package pm models RWC's PM messaging protocol on the simulated Myrinet
// hardware (§7). PM's design points:
//
//   - messages are sent only from special pre-allocated, pinned,
//     physically contiguous send buffers, so DMA transfer units can
//     exceed the page size (8 KB units for peak pipelined bandwidth) —
//     but users must usually copy data into those buffers first, a cost
//     excluded from PM's quoted peak (§7);
//   - the current sender has exclusive access to the network interface:
//     minimal pickup cost and PM's lower latency, at the price of
//     requiring gang scheduling for protection and an expensive channel
//     state save/restore on context switch;
//   - Modified ACK/NACK flow control; multiple channels; polling or
//     interrupt notification (polling modeled here).
package pm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/baselines/testbed"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// Protocol constants and calibrated software costs.
const (
	// TransferUnit is PM's peak-bandwidth DMA unit (§7: 8 KBytes).
	TransferUnit = 8 << 10
	headerBytes  = 12
	// BufBytes is each side's pre-allocated pinned channel buffer.
	BufBytes = 256 << 10
)

var (
	postCost     = sim.Micros(0.5) // write the send descriptor
	lanaiPickup  = sim.Micros(0.8) // exclusive interface: no queue scan
	lanaiRecv    = sim.Micros(1.3)
	pollInterval = sim.Micros(0.3)
	recvLibCost  = sim.Micros(1.2)

	// pioMax: small messages are pushed with programmed I/O, skipping the
	// host DMA (PM's eager small-message path).
	pioMax = 128
)

// System is a two-node PM installation.
type System struct {
	Eng *sim.Engine
	Rig *testbed.Rig
}

// Channel is a PM communication channel between the two hosts, with
// pre-allocated pinned buffers on both sides.
type Channel struct {
	sys *System
	id  byte

	sendPA [2]physRegion // per host: the pinned send buffer
	recvPA [2]physRegion

	// arrived holds, per host, message payloads delivered into the
	// pinned receive buffer and not yet consumed; partial accumulates the
	// in-order units of the message currently arriving.
	arrived [2][][]byte
	partial [2][]byte
}

type physRegion struct {
	base uint64
	size int
}

// New builds the system and starts the receive engines.
func New(eng *sim.Engine, rig *testbed.Rig) *System {
	return &System{Eng: eng, Rig: rig}
}

// OpenChannel allocates the pinned buffers on both hosts and starts the
// channel's receive loops.
func (s *System) OpenChannel(id byte) (*Channel, error) {
	ch := &Channel{sys: s, id: id}
	for i := 0; i < 2; i++ {
		spa, err := s.Rig.Hosts[i].PinnedRegion(BufBytes)
		if err != nil {
			return nil, err
		}
		rpa, err := s.Rig.Hosts[i].PinnedRegion(BufBytes)
		if err != nil {
			return nil, err
		}
		ch.sendPA[i] = physRegion{base: uint64(spa), size: BufBytes}
		ch.recvPA[i] = physRegion{base: uint64(rpa), size: BufBytes}
	}
	for i := 0; i < 2; i++ {
		i := i
		s.Rig.Hosts[i].StartRX(fmt.Sprintf("pm:%d:%d", id, i), func(p *sim.Proc, pk *myrinet.Packet) {
			ch.handlePacket(p, i, pk)
		})
	}
	return ch, nil
}

// Send transmits data from host `from`'s pre-allocated send buffer. When
// includeCopy is set, the user's copy into that buffer is charged first —
// the cost PM's peak-bandwidth quote omits (§7). DMA runs in pipelined
// 8 KB units overlapping injection, since the buffer is physically
// contiguous and pinned.
func (ch *Channel) Send(p *sim.Proc, from int, data []byte, includeCopy bool) error {
	if len(data) == 0 || len(data) > BufBytes {
		return fmt.Errorf("pm: bad message size %d", len(data))
	}
	host := ch.sys.Rig.Hosts[from]
	if includeCopy {
		host.CPU.Bcopy(p, len(data))
	}
	// Stage the bytes "in" the pinned send buffer.
	if err := host.Phys.Write(mem.PhysAddr(ch.sendPA[from].base), data); err != nil {
		return err
	}
	hdr0 := make([]byte, headerBytes)
	hdr0[0] = ch.id
	binary.BigEndian.PutUint32(hdr0[2:], uint32(len(data)))
	if len(data) <= pioMax {
		// Eager small-message path: PIO straight into LANai memory.
		host.CPU.MMIOWriteBytes(p, headerBytes+len(data))
		p.Sleep(postCost + lanaiPickup)
		host.Board.SendPacket(p, host.Peer, host.Route, append(hdr0, data...))
		return nil
	}
	host.CPU.MMIOWriteWords(p, 4)
	p.Sleep(postCost + lanaiPickup)

	// Pipelined units: host DMA of unit k+1 overlaps injection of unit k.
	type unit struct{ off, n int }
	var staged *unit
	dmaDone := sim.NewCond(p.Engine())
	dmaBusy := false
	startDMA := func(u unit) {
		dmaBusy = true
		p.Engine().Go("pm:dma", func(dp *sim.Proc) {
			host.Board.HostDMA.TransferWith(dp, u.n, host.Prof.HostToLANai)
			dmaBusy = false
			staged = &u
			dmaDone.Broadcast()
		})
	}
	next := 0
	total := len(data)
	firstN := total - next
	if firstN > TransferUnit {
		firstN = TransferUnit
	}
	startDMA(unit{0, firstN})
	next = firstN
	for {
		for staged == nil {
			dmaDone.Wait(p)
		}
		u := *staged
		staged = nil
		if next < total {
			n := total - next
			if n > TransferUnit {
				n = TransferUnit
			}
			startDMA(unit{next, n})
			next += n
		}
		hdr := make([]byte, headerBytes)
		hdr[0] = ch.id
		binary.BigEndian.PutUint32(hdr[2:], uint32(total))
		binary.BigEndian.PutUint32(hdr[6:], uint32(u.off))
		host.Board.SendPacket(p, host.Peer, host.Route, append(hdr, data[u.off:u.off+u.n]...))
		if u.off+u.n >= total && !dmaBusy && staged == nil {
			break
		}
	}
	return nil
}

// handlePacket deposits an arriving unit into the pinned receive buffer.
// Units of one message arrive in order on the channel, so reassembly is a
// simple append.
func (ch *Channel) handlePacket(p *sim.Proc, at int, pk *myrinet.Packet) {
	host := ch.sys.Rig.Hosts[at]
	if len(pk.Payload) < headerBytes || !pk.CheckCRC() || pk.Payload[0] != ch.id {
		return
	}
	p.Sleep(lanaiRecv)
	total := int(binary.BigEndian.Uint32(pk.Payload[2:]))
	data := pk.Payload[headerBytes:]
	// DMA the unit into the pinned receive buffer (contiguous, so one
	// transfer regardless of page boundaries).
	host.Board.HostDMA.TransferWith(p, len(data), host.Prof.LANaiToHost)
	if err := host.Phys.Write(mem.PhysAddr(ch.recvPA[at].base), data); err != nil {
		panic(err)
	}
	ch.partial[at] = append(ch.partial[at], data...)
	if len(ch.partial[at]) >= total {
		ch.arrived[at] = append(ch.arrived[at], ch.partial[at][:total])
		ch.partial[at] = nil
	}
}

// Recv polls until a message is available at host `at` and returns its
// payload. The receiver reads directly from the pinned buffer (PM gives
// the receiver a buffer; a copy to user structures would be extra).
func (ch *Channel) Recv(p *sim.Proc, at int) []byte {
	p.PollUntil(pollInterval, 0, nil, func() bool { return len(ch.arrived[at]) > 0 })
	p.Sleep(recvLibCost)
	m := ch.arrived[at][0]
	ch.arrived[at] = ch.arrived[at][1:]
	return m
}
