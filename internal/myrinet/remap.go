package myrinet

import "repro/internal/sim"

// Remap is the post-boot incarnation of the network mapper — a deliberate
// extension beyond the paper, whose tables are static after boot (§4.3).
// At boot (mapper.go) dedicated mapping LCPs feed HandlePacket and the VMMC
// LCP then replaces them; afterwards Remap shares the live control
// programs: every node's receive path passes raw packets through
// HandlePacket (answering probes and funneling replies), and a coordinator
// — the vmmc self-healing layer — calls Probe to run one central mapping
// round on demand.
//
// Alternate-route discovery needs no extra machinery: probes crossing a
// dead link or switch draw no reply, so the BFS simply never records the
// dead path and the first live path it finds — through redundant trunks
// wired with ConnectSwitches — becomes the route. A round during an outage
// therefore yields exactly the failover tables, and a round after repair
// converges back to the boot-time ones.
type Remap struct {
	net     *Network
	replies *sim.Queue[mapReplyMsg]
	seq     uint32
}

// NewRemap creates the shared remap state for one fabric.
func NewRemap(net *Network) *Remap {
	return &Remap{
		net:     net,
		replies: sim.NewQueue[mapReplyMsg](net.Engine(), "remap:replies"),
	}
}

// HandlePacket lets a live control program double as a mapping responder.
// It reports whether pk, which arrived at nic, was a mapping packet (and is
// consumed). A reply is funneled to the prober blocked in Probe; a probe
// is answered by the reply HandlePacket returns, which the caller injects
// from nic along route, the reversed ingress path. Damaged mapping packets
// are consumed silently — the probe times out and the prefix reads as
// dead, which is safe (a retry happens on the next round).
func (r *Remap) HandlePacket(nic *NIC, pk *Packet) (consumed bool, route, reply []byte) {
	typ, seq, id, ok := decodeMapMsg(pk.Payload)
	if !ok {
		return false, nil, nil
	}
	if !pk.CheckCRC() {
		return true, nil, nil
	}
	switch typ {
	case mapProbe:
		return true, ReverseRoute(pk.Ingress), encodeMapMsg(mapReply, seq, uint32(nic.ID))
	case mapReply:
		// The reply's route field IS the responder->prober route (the
		// reversed probe ingress it was sent on).
		r.replies.Put(mapReplyMsg{seq: seq, responder: int(id), back: pk.Route})
	}
	return true, nil, nil
}

// mapReplyMsg is a probe's answer as the coordinator sees it: back is the
// route from the responder to the prober.
type mapReplyMsg struct {
	seq       uint32
	responder int
	back      []byte
}

// probe sends one candidate route from prober and waits for its reply or
// the timeout. The sequence counter is shared across rounds, so stale
// replies from an earlier probe that timed out are discarded, not mistaken
// for answers.
func (r *Remap) probe(p *sim.Proc, prober *NIC, route []byte, timeout sim.Time) (mapReplyMsg, bool) {
	r.seq++
	prober.Send(p, route, encodeMapMsg(mapProbe, r.seq, uint32(prober.ID)))
	for {
		reply, ok := r.replies.GetTimeout(p, timeout)
		if !ok || reply.seq == r.seq {
			return reply, ok
		}
		// A stale reply from a timed-out probe: keep waiting.
	}
}

// Probe runs one central mapping round from prober and returns fresh
// pairwise route tables covering every host that answered. It blocks p for
// the round's duration (every silent prefix costs one probeTimeout).
func (r *Remap) Probe(p *sim.Proc, prober *NIC, maxDepth int, probeTimeout sim.Time) map[int]RouteTable {
	return r.round(p, prober, maxDepth, probeTimeout, silentLimit)
}

// round is Probe with the silent cutoff's limit as a parameter (see
// centralExplore).
func (r *Remap) round(p *sim.Proc, prober *NIC, maxDepth int, probeTimeout sim.Time, limit int) map[int]RouteTable {
	forward := map[int][]byte{} // host -> probe route from prober
	back := map[int][]byte{}    // host -> reply route to prober
	centralExplore(func(route []byte) (int, bool) {
		reply, ok := r.probe(p, prober, route, probeTimeout)
		if !ok {
			return 0, false
		}
		if _, dup := forward[reply.responder]; !dup {
			forward[reply.responder] = append([]byte(nil), route...)
			back[reply.responder] = append([]byte(nil), reply.back...)
		}
		return reply.responder, true
	}, maxDepth, limit)
	return composeCentralTables(prober.ID, forward, back)
}
