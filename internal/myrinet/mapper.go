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
	tables map[int]RouteTable
	done   bool
	cond   *sim.Cond
}

// bootMapping loads the mapping LCP on every NIC of the network — a
// process feeding its receive queue to Remap.HandlePacket, which answers
// probes and funnels replies to the coordinator — and runs round as that
// coordinator. The responders are killed once the round returns, freeing
// the RX queues for the VMMC LCP (§4.3: "replaces the mapping LCP"). It
// returns immediately; the run completes as the simulation executes.
func bootMapping(net *Network, round func(p *sim.Proc, r *Remap) map[int]RouteTable) *Mapping {
	eng := net.Engine()
	m := &Mapping{cond: sim.NewCond(eng)}
	r := NewRemap(net)
	var responders []*sim.Proc
	for _, nic := range net.NICs() {
		responders = append(responders, eng.Go(fmt.Sprintf("maplcp:%d", nic.ID), func(p *sim.Proc) {
			for {
				if _, route, reply := r.HandlePacket(nic, nic.RX.Get(p)); reply != nil {
					nic.Send(p, route, reply)
				}
			}
		}))
	}
	eng.Go("map:coordinator", func(p *sim.Proc) {
		defer func() {
			for _, rp := range responders {
				rp.Kill()
			}
			m.done = true
			m.cond.Broadcast()
		}()
		m.tables = round(p, r)
	})
	return m
}

// StartMapping probes breadth-first from each node in turn, up to maxDepth
// switch hops: the exhaustive mapper, which assumes nothing about the
// wiring and costs a number of probes exponential in the depth. Use Wait
// from a process, or run the engine and then call Tables.
func StartMapping(net *Network, maxDepth int, probeTimeout sim.Time) *Mapping {
	return bootMapping(net, func(p *sim.Proc, r *Remap) map[int]RouteTable {
		tables := make(map[int]RouteTable)
		for _, nic := range net.NICs() {
			table := RouteTable{}
			// Breadth-first candidate routes. The empty route covers a
			// direct NIC-to-NIC cable.
			frontier := [][]byte{{}}
			for depth := 0; depth <= maxDepth && len(frontier) > 0; depth++ {
				var next [][]byte
				for _, route := range frontier {
					if reply, ok := r.probe(p, nic, route, probeTimeout); ok {
						if _, dup := table[reply.responder]; !dup {
							table[reply.responder] = append([]byte(nil), route...)
						}
					} else if depth < maxDepth {
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
			tables[nic.ID] = table
		}
		return tables
	})
}

// StartMappingCentral maps the fabric from a single host and computes
// every node's route table from the discovered tree — the way deployed
// Myrinet mapping worked: one mapper host explores, then distributes
// routes. It is one Remap.Probe round from the first NIC, run at boot. The
// prober still learns only what probe packets tell it, but two prunings
// keep the search linear in the fabric size where the per-node prober of
// StartMapping is exponential:
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
	return bootMapping(net, func(p *sim.Proc, r *Remap) map[int]RouteTable {
		if len(net.NICs()) == 0 {
			return nil
		}
		return r.Probe(p, net.NICs()[0], maxDepth, probeTimeout)
	})
}

// centralExplore drives one central mapping round: a direct-cable check
// followed by the BFS over switch-port prefixes with fingerprint dedup and
// the silent cutoff. probe sends one candidate route and reports the
// responding host (recording routes is the caller's business, via the
// closure).
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
// divergence switch and descends j's probe route. The loopback route i->i
// is the last byte of P(i), the port host i hangs off: out to its own
// switch and straight back (the prober's P is its own loopback probe).
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
			switch {
			case i == j:
				// No loopback on a direct cable: there is no switch to turn.
				if pi := forward[i]; len(pi) > 0 {
					table[i] = []byte{pi[len(pi)-1]}
				}
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
