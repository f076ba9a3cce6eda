package vmmc

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The self-healing layer is a deliberate extension beyond the paper, whose
// network maps are static after boot (§4.3). When a reliable sender's
// window stalls (the retransmit budget runs out without an ack), the heal
// service suspends that window instead of declaring the peer dead, re-runs
// the central mapping round over the live fabric, swaps any changed routes
// into every node's tables and reliable-link windows, and resumes the
// suspended transfers. On fabrics wired with redundant trunks the remap
// discovers detours around dead links and switches; on minimal fabrics it
// heals once the outage ends. These constants pace it.
const (
	// healProbeInterval is the pause between remap rounds while stalls
	// are outstanding.
	healProbeInterval = 500 * sim.Microsecond
	// healMaxRounds bounds how many remap rounds a stalled window waits
	// before the heal service gives up and the send surfaces
	// ErrNodeUnreachable.
	healMaxRounds = 64
	// healProbeTimeout is the per-probe reply timeout. Boot's formula
	// (20µs + 2·depth·SwitchLatency, ≈ 24µs on the diamond fabric) makes a
	// remap round ≈ 11ms there — silent dangling-port prefixes dominate the
	// BFS — which would quantize every heal to the same round. Replies
	// arrive within a few microseconds (a few hops, short probes), so a
	// tight timeout keeps rounds short enough to resolve outage duration.
	healProbeTimeout = 8 * sim.Microsecond
	// healDistributeCost is the modeled per-node cost of installing a
	// fresh route table (an LCP control message plus SRAM writes).
	healDistributeCost = 2 * sim.Microsecond
)

// stallKey identifies one suspended reliable window: a sender node and the
// destination node it cannot reach.
type stallKey struct {
	node, peer int
}

// healMetrics count the self-healing layer's activity as heal/* metrics:
// reliable windows suspended pending a remap (stalls), remap rounds that
// produced a usable map, route-table entries a remap changed (route_swaps),
// suspended windows resumed on a live route (healed) or given up after
// healMaxRounds (abandoned), and imports refreshed after an exporter
// restart (import_revalidations).
type healMetrics struct {
	stalls, remaps, swaps, healed, abandoned, revals *trace.Counter
}

// HealService is the cluster-wide self-healing coordinator. One daemon
// process waits for stall reports, paces remap rounds, and distributes the
// results; per-node hooks (a raw-packet filter on each board and a stall
// handler on each reliable link) feed it.
type HealService struct {
	c     *Cluster
	remap *myrinet.Remap
	work  *sim.Cond
	// stalled counts, per suspended window, the remap rounds it has
	// survived without healing.
	stalled map[stallKey]int
	// last holds the most recent remap's tables; a restarting node re-syncs
	// its routes from here so it rejoins on the healed topology.
	last map[int]myrinet.RouteTable
	m    healMetrics
}

// newHealService wires the heal layer into every node: boards pass mapping
// packets to the shared Remap (so live LCPs double as probe responders),
// and reliable links report stalls instead of declaring peers dead.
func newHealService(c *Cluster) *HealService {
	met := c.Eng.Metrics()
	h := &HealService{
		c:       c,
		remap:   myrinet.NewRemap(c.Net),
		work:    sim.NewCond(c.Eng),
		stalled: make(map[stallKey]int),
		m: healMetrics{
			stalls:    met.Counter("heal/stalls"),
			remaps:    met.Counter("heal/remaps"),
			swaps:     met.Counter("heal/route_swaps"),
			healed:    met.Counter("heal/healed"),
			abandoned: met.Counter("heal/abandoned"),
			revals:    met.Counter("heal/import_revalidations"),
		},
	}
	for _, n := range c.Nodes {
		n.heal = h
		node := n
		node.Board.SetRawFilter(func(pk *myrinet.Packet) (bool, []byte, []byte) {
			return h.remap.HandlePacket(node.Board.NIC, pk)
		})
		node.Board.Reliable().SetStallHandler(func(peer int) bool {
			return h.onStall(node, peer)
		})
	}
	proc := c.Eng.Go("heal:coordinator", h.run)
	proc.SetDaemon(true)
	return h
}

// onStall runs in the stalling sender's timer context; it must decide
// quickly and without blocking. It accepts the stall (suspending n's
// windows toward node peer) unless the peer is known-crashed — a crash is
// a real death the application should see, only the path to a live peer
// is healable.
func (h *HealService) onStall(n *Node, peer int) bool {
	if h.c.Nodes[peer].crashed {
		return false
	}
	k := stallKey{node: n.ID, peer: peer}
	if _, dup := h.stalled[k]; !dup {
		h.stalled[k] = 0
	}
	h.m.stalls.Add(1)
	h.c.Eng.TraceInstant("heal", "heal", fmt.Sprintf("stall node%d->node%d", n.ID, peer))
	h.work.Signal()
	return true
}

// run is the coordinator loop: sleep until a stall arrives, pace one remap
// round per healProbeInterval while any remain, and park again when the
// table is clear.
func (h *HealService) run(p *simProc) {
	for {
		for len(h.stalled) == 0 {
			h.work.Wait(p)
		}
		p.Sleep(healProbeInterval)
		h.round(p)
	}
}

// round performs one heal cycle: probe the fabric from a live node,
// distribute whatever map comes back, then resume or give up on each
// suspended window.
func (h *HealService) round(p *simProc) {
	// A loop-free route crosses each switch at most once, so the switch
	// count bounds probe route length (TestHealDepthCoversFabric).
	depth := len(h.c.Net.Switches())

	// Probe from the first live nodes, in ID order for determinism. A
	// prober behind the broken element sees only its own island; accept
	// the first map that covers anyone besides the prober, and let later
	// rounds (from the same deterministic candidate order) catch up as
	// the fabric changes.
	var tables map[int]myrinet.RouteTable
	candidates := 0
	for _, n := range h.c.Nodes {
		if n.crashed {
			continue
		}
		if candidates++; candidates > 3 {
			break
		}
		h.c.Eng.TraceBegin("heal", "heal", fmt.Sprintf("remap from node%d", n.ID))
		t := h.remap.Probe(p, n.Board.NIC, depth, healProbeTimeout)
		h.c.Eng.TraceEnd("heal", "heal", fmt.Sprintf("remap from node%d", n.ID))
		if len(t) >= 2 {
			tables = t
			break
		}
	}
	if tables != nil {
		h.m.remaps.Add(1)
		h.last = tables
		h.distribute(p, tables)
	}
	h.settle(tables)
}

// distribute installs the fresh map on every live node: a changed route is
// rewritten in the LCP's table and in the reliable link's windows toward
// its destination (in-window unacked packets will retransmit on the new
// path). Entries for vanished destinations are kept — their windows stay
// suspended and either heal on a later round or expire.
func (h *HealService) distribute(p *simProc, tables map[int]myrinet.RouteTable) {
	for _, n := range h.c.Nodes {
		if n.crashed {
			continue
		}
		fresh := tables[n.ID]
		if fresh == nil {
			continue
		}
		p.Sleep(healDistributeCost)
		rl := n.Board.Reliable()
		dsts := make([]int, 0, len(fresh))
		for d := range fresh {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			old, had := n.LCP.routes[d]
			route := fresh[d]
			if had && bytes.Equal(old, route) {
				continue
			}
			rl.Reroute(d, route)
			n.LCP.routes[d] = append([]byte(nil), route...)
			h.m.swaps.Add(1)
			h.c.Eng.TraceInstant("heal", "heal",
				fmt.Sprintf("route_swap node%d->node%d", n.ID, d))
		}
	}
}

// settle walks the stall table after a round (in sorted order — map
// iteration order must not leak into the simulation). Every pair the new
// map reaches resumes; pairs still dark, or every pair when the round
// produced no usable map (tables is nil: the prober itself is cut off),
// age toward the healMaxRounds budget, so a permanently dead fabric still
// drains toward ErrNodeUnreachable instead of suspending forever.
func (h *HealService) settle(tables map[int]myrinet.RouteTable) {
	keys := make([]stallKey, 0, len(h.stalled))
	for k := range h.stalled {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].peer < keys[j].peer
	})
	for _, k := range keys {
		src := h.c.Nodes[k.node]
		if src.crashed {
			delete(h.stalled, k)
			continue
		}
		if _, reachable := tables[k.node][k.peer]; reachable {
			src.Board.Reliable().Resume(k.peer)
			delete(h.stalled, k)
			h.m.healed.Add(1)
			h.c.Eng.TraceInstant("heal", "heal",
				fmt.Sprintf("healed node%d->node%d", k.node, k.peer))
			continue
		}
		if h.stalled[k]++; h.stalled[k] >= healMaxRounds {
			src.Board.Reliable().Abandon(k.peer)
			delete(h.stalled, k)
			h.m.abandoned.Add(1)
			h.c.Eng.TraceInstant("heal", "heal",
				fmt.Sprintf("abandoned node%d->node%d", k.node, k.peer))
		}
	}
}

// noteCrash forgets stalls originating at a node that just died — its
// reliable link state was reset with it.
func (h *HealService) noteCrash(node int) {
	for k := range h.stalled {
		if k.node == node {
			delete(h.stalled, k)
		}
	}
}

// noteRestart runs after a crashed node reboots: stalls touching it are
// dropped (RestartNode already reset peers' windows toward it), its routes
// are re-synced from the latest remap so it rejoins on the healed
// topology, and every live import of its pre-crash exports is marked
// stale — the cached frame translations point into a reborn memory.
func (h *HealService) noteRestart(node int) {
	for k := range h.stalled {
		if k.node == node || k.peer == node {
			delete(h.stalled, k)
		}
	}
	if t, ok := h.last[node]; ok {
		n := h.c.Nodes[node]
		for d, route := range t {
			n.LCP.routes[d] = append([]byte(nil), route...)
		}
	}
	for _, peer := range h.c.Nodes {
		if peer.ID == node || peer.crashed {
			continue
		}
		for _, proc := range peer.procs {
			for base, rec := range proc.imports {
				if rec.exporterNode == node {
					rec.stale = true
					proc.imports[base] = rec
				}
			}
		}
	}
}

// noteRevalidation is called by the daemon when RevalidateImport succeeds.
func (h *HealService) noteRevalidation() {
	h.m.revals.Add(1)
}
