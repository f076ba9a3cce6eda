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

// MapFabric is the mapping LCP's boot job (§4.3), run from p: it loads a
// mapping responder on every NIC — a process feeding its receive queue to
// Remap.HandlePacket, which answers probes and funnels replies to p — and
// returns every node's route table. The responders are killed before it
// returns, freeing the RX queues for the VMMC LCP ("replaces the mapping
// LCP").
//
// Mapping is central, the way deployed Myrinet mapping worked: one host
// explores the fabric and computes everyone's routes from the discovered
// tree. On a connected fabric that is exactly one Remap.Probe round from
// the first NIC — the round the self-healing layer re-runs after boot.
// A NIC the round misses gets no table; MapFabric then probes from the
// lowest-numbered such NIC and repeats until every NIC has a table, so
// each island of a partitioned fabric maps itself. Those later rounds
// widen the silent cutoff by one level (see centralExplore), which finds
// a host behind two hostless switches in a row and keeps the cost of a
// round bounded; a host behind three stays unmapped.
func MapFabric(p *sim.Proc, net *Network, maxDepth int, probeTimeout sim.Time) map[int]RouteTable {
	eng := net.Engine()
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
	defer func() {
		for _, rp := range responders {
			rp.Kill()
		}
	}()
	tables := make(map[int]RouteTable)
	limit := silentLimit
	for _, nic := range net.NICs() {
		if _, mapped := tables[nic.ID]; mapped {
			continue
		}
		// A wider round sees at least what a narrower one saw of the
		// fabric it reaches, so a later round's tables replace earlier
		// ones.
		for id, table := range r.round(p, nic, maxDepth, probeTimeout, limit) {
			tables[id] = table
		}
		limit = silentLimit + 1
	}
	return tables
}

// silentLimit is the silent cutoff of a first mapping round: the
// consecutive reply-less levels after which a prefix is abandoned.
const silentLimit = 2

// centralExplore drives one central mapping round: a direct-cable check
// followed by a BFS over switch-port prefixes, up to maxDepth switch hops.
// probe sends one candidate route and reports the responding host
// (recording routes is the caller's business, via the closure). The
// prober learns only what probe packets tell it, but two prunings keep
// the search linear in the fabric size where probing every prefix is
// exponential in the depth:
//
//   - switch fingerprinting: the 8-port reply pattern of a switch with at
//     least one attached host identifies it uniquely (host NIC ids are
//     unique), so a route prefix whose one-hop replies match an already
//     explored switch is a walk doubling back through the fabric and is
//     not extended;
//   - silent cutoff: a prefix whose whole subtree has drawn no reply for
//     limit consecutive levels is a dangling cable, not a switch chain,
//     and is abandoned (a real chain shows attached hosts along the way).
//     A limit of silentLimit assumes hostless switches do not appear
//     two-in-a-row, true of any cluster wiring that puts hosts on every
//     switch; each level more admits one more hostless switch in a row
//     and multiplies the probes spent on a dangling cable by eight.
func centralExplore(probe func(route []byte) (int, bool), maxDepth, limit int) {
	if _, direct := probe(nil); direct {
		return
	}
	// BFS over switch prefixes with fingerprint dedup and the silent
	// cutoff.
	type prefix struct {
		route  []byte
		silent int // consecutive reply-less levels ending here
	}
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
		if run <= limit {
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
