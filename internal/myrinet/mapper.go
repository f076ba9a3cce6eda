package myrinet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
)

// The network-mapping control program (§4.3): at boot, every node loads a
// mapping LCP that discovers routes to all reachable hosts by exchanging
// probe packets, then hands the static route tables to the VMMC LCP that
// replaces it. The paper stops there — its tables are static for the life
// of the machine. This reproduction additionally keeps the central
// mapper's machinery alive after boot as a background remap service
// (remap.go, a deliberate extension beyond the paper): the vmmc
// self-healing layer re-runs the probe round when the reliable link
// reports a stall, so topology changes no longer require a restart.
//
// Discovery is honest: the mapper only learns what probe packets tell it.
// A probe carries a candidate route; if it reaches a host, that host's
// mapping responder replies along the reversed ingress-port path. Routes
// that draw no reply within the timeout either dead-end or stop inside a
// switch and are extended breadth-first up to the depth limit.

// RouteTable maps a destination NIC id to the source route reaching it.
type RouteTable map[int][]byte

// Mapping message framing.
const (
	mapMagic   = 0x4D // 'M'
	mapProbe   = 1
	mapReply   = 2
	mapMsgSize = 10
)

func encodeMapMsg(typ byte, seq uint32, nicID uint32) []byte {
	b := make([]byte, mapMsgSize)
	b[0] = mapMagic
	b[1] = typ
	binary.BigEndian.PutUint32(b[2:], seq)
	binary.BigEndian.PutUint32(b[6:], nicID)
	return b
}

func decodeMapMsg(b []byte) (typ byte, seq uint32, nicID uint32, ok bool) {
	if len(b) != mapMsgSize || b[0] != mapMagic {
		return 0, 0, 0, false
	}
	return b[1], binary.BigEndian.Uint32(b[2:]), binary.BigEndian.Uint32(b[6:]), true
}

// Mapping is an in-progress or finished network-mapping run.
type Mapping struct {
	eng    *sim.Engine
	net    *Network
	tables map[int]RouteTable
	done   bool
	cond   *sim.Cond
	err    error
}

type mapReplyMsg struct {
	seq       uint32
	responder int
	ingress   []byte
}

// StartMapping boots the mapping LCP on every NIC of the network and
// probes breadth-first from each node up to maxDepth switch hops. It
// returns immediately; the run completes as the simulation executes. Use
// Wait from a process, or run the engine and then call Tables.
func StartMapping(net *Network, maxDepth int, probeTimeout sim.Time) *Mapping {
	m := &Mapping{
		eng:    net.Engine(),
		net:    net,
		tables: make(map[int]RouteTable),
		cond:   sim.NewCond(net.Engine()),
	}

	replies := sim.NewQueue[mapReplyMsg](m.eng, "map:replies")
	nics := net.NICs()

	// Mapping responders: every NIC answers probes and funnels replies to
	// the coordinator. They are killed once mapping finishes, freeing the
	// RX queues for the VMMC LCP (§4.3: "replaces the mapping LCP").
	responders := make([]*sim.Proc, len(nics))
	for _, nic := range nics {
		nic := nic
		responders[nic.ID] = m.eng.Go(fmt.Sprintf("maplcp:%d", nic.ID), func(p *sim.Proc) {
			for {
				pk := nic.RX.Get(p)
				typ, seq, id, ok := decodeMapMsg(pk.Payload)
				if !ok || !pk.CheckCRC() {
					continue
				}
				switch typ {
				case mapProbe:
					reply := encodeMapMsg(mapReply, seq, uint32(nic.ID))
					nic.Send(p, ReverseRoute(pk.Ingress), reply)
				case mapReply:
					replies.Put(mapReplyMsg{seq: seq, responder: int(id), ingress: pk.Ingress})
				}
			}
		})
	}

	m.eng.Go("map:coordinator", func(p *sim.Proc) {
		defer func() {
			for _, r := range responders {
				r.Kill()
			}
			m.done = true
			m.cond.Broadcast()
		}()
		var seq uint32
		for _, nic := range nics {
			table := RouteTable{}
			reverse := map[int][]byte{} // responder -> route back to prober
			// Breadth-first candidate routes. The empty route covers a
			// direct NIC-to-NIC cable.
			frontier := [][]byte{{}}
			for depth := 0; depth <= maxDepth && len(frontier) > 0; depth++ {
				var next [][]byte
				for _, route := range frontier {
					seq++
					nic.Send(p, route, encodeMapMsg(mapProbe, seq, uint32(nic.ID)))
					found := false
					for {
						r, ok := replies.GetTimeout(p, probeTimeout)
						if !ok {
							break
						}
						if r.seq != seq {
							continue // stale reply from a timed-out probe
						}
						if _, dup := table[r.responder]; !dup {
							table[r.responder] = append([]byte(nil), route...)
							reverse[r.responder] = ReverseRoute(r.ingress)
						}
						found = true
						break
					}
					if !found && depth < maxDepth {
						// Possibly a switch behind this prefix: extend.
						for port := 0; port < 8; port++ {
							ext := make([]byte, len(route)+1)
							copy(ext, route)
							ext[len(route)] = byte(port)
							next = append(next, ext)
						}
					}
				}
				frontier = next
			}
			m.tables[nic.ID] = table
		}
	})
	return m
}

// StartMappingCentral maps the fabric from a single host and computes
// every node's route table from the discovered tree — the way deployed
// Myrinet mapping worked: one mapper host explores, then distributes
// routes. The prober still learns only what probe packets tell it, but
// two prunings keep the search linear in the fabric size where the
// per-node prober of StartMapping is exponential:
//
//   - switch fingerprinting: the 8-port reply pattern of a switch with at
//     least one attached host identifies it uniquely (host NIC ids are
//     unique), so a route prefix whose one-hop replies match an already
//     explored switch is a walk doubling back through the fabric and is
//     not extended;
//   - silent cutoff: a prefix whose whole subtree has drawn no reply for
//     two consecutive levels is a dangling cable, not a switch chain, and
//     is abandoned (a real chain shows attached hosts along the way).
//
// The cutoff assumes hostless switches do not appear two-in-a-row, true
// of any cluster wiring that puts hosts on every switch; pathological
// fabrics should use the exhaustive StartMapping.
//
// Pairwise routes fall out of the tree: with P(h) the probe route to
// host h and R(h) the reply route back (read straight from the reply
// packet), and c the longest common switch prefix of P(i) and P(j), the
// route i->j climbs i's reply route to the divergence switch and descends
// j's probe route: R(i)[:len(P(i))-1-c] + P(j)[c:].
func StartMappingCentral(net *Network, maxDepth int, probeTimeout sim.Time) *Mapping {
	m := &Mapping{
		eng:    net.Engine(),
		net:    net,
		tables: make(map[int]RouteTable),
		cond:   sim.NewCond(net.Engine()),
	}

	replies := sim.NewQueue[mapReplyMsg](m.eng, "map:replies")
	nics := net.NICs()
	if len(nics) == 0 {
		m.done = true
		return m
	}

	responders := make([]*sim.Proc, len(nics))
	for _, nic := range nics {
		nic := nic
		responders[nic.ID] = m.eng.Go(fmt.Sprintf("maplcp:%d", nic.ID), func(p *sim.Proc) {
			for {
				pk := nic.RX.Get(p)
				typ, seq, id, ok := decodeMapMsg(pk.Payload)
				if !ok || !pk.CheckCRC() {
					continue
				}
				switch typ {
				case mapProbe:
					reply := encodeMapMsg(mapReply, seq, uint32(nic.ID))
					nic.Send(p, ReverseRoute(pk.Ingress), reply)
				case mapReply:
					// The reply's route field IS the responder->prober
					// route (the reversed probe ingress it was sent on).
					replies.Put(mapReplyMsg{seq: seq, responder: int(id), ingress: pk.Route})
				}
			}
		})
	}

	prober := nics[0]
	m.eng.Go("map:coordinator", func(p *sim.Proc) {
		defer func() {
			for _, r := range responders {
				r.Kill()
			}
			m.done = true
			m.cond.Broadcast()
		}()

		forward := map[int][]byte{} // host -> probe route from prober
		back := map[int][]byte{}    // host -> reply route to prober
		var seq uint32
		// probe sends one candidate route and waits for its reply or the
		// timeout. It reports the responder, recording first-seen routes.
		probe := func(route []byte) (int, bool) {
			seq++
			prober.Send(p, route, encodeMapMsg(mapProbe, seq, uint32(prober.ID)))
			for {
				r, ok := replies.GetTimeout(p, probeTimeout)
				if !ok {
					return 0, false
				}
				if r.seq != seq {
					continue // stale reply from a timed-out probe
				}
				if _, dup := forward[r.responder]; !dup {
					forward[r.responder] = append([]byte(nil), route...)
					back[r.responder] = append([]byte(nil), r.ingress...)
				}
				return r.responder, true
			}
		}

		centralExplore(probe, maxDepth)
		m.tables = composeCentralTables(prober.ID, forward, back)
	})
	return m
}

// centralExplore drives one central mapping round: a direct-cable check
// followed by the BFS over switch-port prefixes with fingerprint dedup and
// the silent cutoff. probe sends one candidate route and reports the
// responding host (recording routes is the caller's business, via the
// closure). Shared by the boot-time StartMappingCentral and the post-boot
// Remap service.
func centralExplore(probe func(route []byte) (int, bool), maxDepth int) {
	if _, direct := probe(nil); direct {
		return
	}
	// BFS over switch prefixes with fingerprint dedup and the silent
	// cutoff.
	type prefix struct {
		route  []byte
		silent int // consecutive reply-less levels ending here
	}
	const silentLimit = 2
	seen := map[string]bool{} // fingerprints of explored switches
	queue := []prefix{{route: nil, silent: 1}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if len(e.route) >= maxDepth {
			continue
		}
		var fp [8]int
		anyReply := false
		var silentKids [][]byte
		for port := 0; port < 8; port++ {
			ext := make([]byte, len(e.route)+1)
			copy(ext, e.route)
			ext[len(e.route)] = byte(port)
			if id, ok := probe(ext); ok {
				fp[port] = id + 1
				anyReply = true
			} else {
				fp[port] = 0
				silentKids = append(silentKids, ext)
			}
		}
		run := e.silent + 1
		if anyReply {
			key := fmt.Sprint(fp)
			if seen[key] {
				continue // a walk back into an explored switch
			}
			seen[key] = true
			run = 1
		}
		if run <= silentLimit {
			for _, k := range silentKids {
				queue = append(queue, prefix{route: k, silent: run})
			}
		}
	}
}

// composeCentralTables computes every pairwise table from one prober's
// view of the fabric. Probe routes from a fixed prober are BFS-minimal, so
// equal port prefixes mean the same switch: with P(h) the probe route to
// host h, R(h) the reply route back, and c the longest common switch
// prefix of P(i) and P(j), the route i->j climbs i's reply route to the
// divergence switch and descends j's probe route.
func composeCentralTables(proberID int, forward, back map[int][]byte) map[int]RouteTable {
	tables := make(map[int]RouteTable)
	hosts := []int{proberID}
	for h := range forward {
		if h != proberID {
			hosts = append(hosts, h)
		}
	}
	for _, i := range hosts {
		table := RouteTable{}
		for _, j := range hosts {
			if i == j {
				continue
			}
			switch {
			case i == proberID:
				table[j] = append([]byte(nil), forward[j]...)
			case j == proberID:
				table[j] = append([]byte(nil), back[i]...)
			default:
				pi, pj, ri := forward[i], forward[j], back[i]
				c := 0
				for c < len(pi)-1 && c < len(pj)-1 && pi[c] == pj[c] {
					c++
				}
				route := append([]byte(nil), ri[:len(pi)-1-c]...)
				table[j] = append(route, pj[c:]...)
			}
		}
		tables[i] = table
	}
	return tables
}

// Wait parks p until mapping completes.
func (m *Mapping) Wait(p *sim.Proc) {
	for !m.done {
		m.cond.Wait(p)
	}
}

// Tables returns the per-node route tables. It panics if mapping has not
// completed — run the engine first.
func (m *Mapping) Tables() map[int]RouteTable {
	if !m.done {
		panic("myrinet: Tables() before mapping completed")
	}
	return m.tables
}
