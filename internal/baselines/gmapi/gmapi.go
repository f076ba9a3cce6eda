// Package gmapi models Myricom's stock Myrinet API on the simulated
// hardware (§7): the vendor messaging layer the paper measures at 63 us
// latency for a 4-byte packet and ~30 MB/s peak ping-pong bandwidth for
// 8 KB messages. The model reflects why it is slow:
//
//   - a heavyweight host library path on both send and receive
//     (multi-channel demultiplexing, descriptor management);
//   - large messages move in page-sized chunks, each paying per-chunk
//     LANai handling on both sides;
//   - the LANai computes a software message checksum, overlapped with the
//     DMA streams but verified before delivery;
//   - no flow control or reliable delivery (§7), so nothing is modeled
//     for retransmission — packets that fail the CRC are simply dropped.
package gmapi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/baselines/testbed"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

const (
	headerBytes = 12
	chunkBytes  = 4096
)

var (
	sendLibCost  = sim.Micros(23.4) // api_send host library path
	recvLibCost  = sim.Micros(23.4) // receive-side library + dispatch
	lanaiSend    = sim.Micros(4)    // LANai per-chunk handling + checksum setup
	lanaiRecv    = sim.Micros(4)
	pollInterval = sim.Micros(0.5)
)

// System is a two-node Myrinet API installation.
type System struct {
	Eng *sim.Engine
	Rig *testbed.Rig
	Eps [2]*Endpoint
}

// Endpoint is one node's API port.
type Endpoint struct {
	host    *testbed.Host
	arrived [][]byte
	pending map[uint32][]byte
	nextID  uint32

	ChecksumFailures int64
}

// New builds the system and starts the receive engines.
func New(eng *sim.Engine, rig *testbed.Rig) *System {
	s := &System{Eng: eng, Rig: rig}
	for i := 0; i < 2; i++ {
		s.Eps[i] = &Endpoint{host: rig.Hosts[i], pending: make(map[uint32][]byte)}
	}
	for i := 0; i < 2; i++ {
		ep := s.Eps[i]
		ep.host.StartRX(fmt.Sprintf("gmapi:%d", i), ep.handlePacket)
	}
	return s
}

// checksum is the API's software message checksum, computed by the LANai.
func checksum(data []byte) uint16 {
	var s uint16
	for _, b := range data {
		s = s<<1 | s>>15
		s += uint16(b)
	}
	return s
}

// Send transmits data from registered memory to the peer in page-sized
// chunks. Each chunk pays per-chunk LANai handling; the software checksum
// is computed incrementally as the DMA streams (overlapped), so the DMA
// plus handling dominates.
func (ep *Endpoint) Send(p *sim.Proc, data []byte) {
	host := ep.host
	p.Sleep(sendLibCost)
	msgID := ep.nextID
	ep.nextID++
	total := len(data)

	for off := 0; off < total || (total == 0 && off == 0); off += chunkBytes {
		n := total - off
		if n > chunkBytes {
			n = chunkBytes
		}
		host.Board.HostDMA.TransferWith(p, n, host.Prof.HostToLANai)
		p.Sleep(lanaiSend)
		hdr := make([]byte, headerBytes)
		binary.BigEndian.PutUint32(hdr[0:], msgID)
		binary.BigEndian.PutUint32(hdr[4:], uint32(total))
		binary.BigEndian.PutUint16(hdr[8:], checksum(data[off:off+n]))
		host.Board.SendPacket(p, host.Peer, host.Route, append(hdr, data[off:off+n]...))
		if total == 0 {
			break
		}
	}
}

// handlePacket verifies the checksum and DMAs the chunk up to host memory.
func (ep *Endpoint) handlePacket(p *sim.Proc, pk *myrinet.Packet) {
	host := ep.host
	if len(pk.Payload) < headerBytes || !pk.CheckCRC() {
		return
	}
	p.Sleep(lanaiRecv)
	data := pk.Payload[headerBytes:]
	if checksum(data) != binary.BigEndian.Uint16(pk.Payload[8:]) {
		ep.ChecksumFailures++
		return // no reliable delivery: drop (§7)
	}
	host.Board.HostDMA.TransferWith(p, len(data), host.Prof.LANaiToHost)
	msgID := binary.BigEndian.Uint32(pk.Payload[0:])
	total := int(binary.BigEndian.Uint32(pk.Payload[4:]))
	ep.pending[msgID] = append(ep.pending[msgID], data...)
	if len(ep.pending[msgID]) >= total {
		ep.arrived = append(ep.arrived, ep.pending[msgID][:total])
		delete(ep.pending, msgID)
	}
}

// Recv polls for the next message and runs the receive library path.
func (ep *Endpoint) Recv(p *sim.Proc) []byte {
	p.PollUntil(pollInterval, 0, nil, func() bool { return len(ep.arrived) > 0 })
	p.Sleep(recvLibCost)
	m := ep.arrived[0]
	ep.arrived = ep.arrived[1:]
	return m
}
