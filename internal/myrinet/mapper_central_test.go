package myrinet

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// buildChain wires nsw 8-port switches in a chain (port 7 forward, port 6
// back) with hosts on ports 0..5 — the cluster wiring for >8 nodes.
func buildChain(t *testing.T, e *sim.Engine, nsw, hosts int) *Network {
	t.Helper()
	n := New(e, hw.Default())
	switches := make([]*Switch, nsw)
	for i := range switches {
		switches[i] = n.AddSwitch(8)
		if i > 0 {
			if err := n.ConnectSwitches(switches[i-1], 7, switches[i], 6); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < hosts; i++ {
		nic := n.AddNIC()
		if err := n.AttachNIC(nic, switches[i/6], i%6); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// mapFabric runs MapFabric on n from a boot process, runs the engine to
// completion and returns the tables.
func mapFabric(t *testing.T, e *sim.Engine, n *Network, maxDepth int, probeTimeout sim.Time) map[int]RouteTable {
	t.Helper()
	var tables map[int]RouteTable
	e.Go("boot", func(p *sim.Proc) { tables = MapFabric(p, n, maxDepth, probeTimeout) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestCentralMappingChainAllPairs checks the centralized mapper on the
// multi-switch cluster wiring: every pair of hosts gets a route, each host
// a loopback route to itself, and every computed route walks to its
// destination. The pairwise routes for nodes other than the prober are
// derived from the tree, not probed, so this pins the
// climb-to-divergence/descend composition.
func TestCentralMappingChainAllPairs(t *testing.T) {
	e := sim.NewEngine()
	n := buildChain(t, e, 4, 20)
	timeout := 20*sim.Microsecond + sim.Time(10)*hw.Default().SwitchLatency
	tables := mapFabric(t, e, n, 5, timeout)
	nics := n.NICs()
	for _, src := range nics {
		for _, dst := range nics {
			route, ok := tables[src.ID][dst.ID]
			if !ok {
				t.Fatalf("no route %d->%d", src.ID, dst.ID)
			}
			got, _, _, reason := n.walk(src, route, nil)
			if got == nil || got.ID != dst.ID {
				t.Errorf("route %d->%d = %v invalid: %s", src.ID, dst.ID, route, reason)
			}
		}
	}
}

// TestCentralMappingProbeBudget pins the point of the centralized mapper:
// probe traffic stays linear in the fabric size instead of exponential in
// chain depth. A 7-switch chain explored exhaustively would need ~8^8
// probes; the central mapper's fingerprint dedup and silent cutoff keep
// the whole run under a few thousand packets.
func TestCentralMappingProbeBudget(t *testing.T) {
	e := sim.NewEngine()
	n := buildChain(t, e, 7, 40)
	timeout := 20*sim.Microsecond + sim.Time(16)*hw.Default().SwitchLatency
	tables := mapFabric(t, e, n, 8, timeout)
	if len(tables) != 40 {
		t.Fatalf("mapped %d hosts, want 40", len(tables))
	}
	if injected := counter(t, e, "nic0/packets_injected"); injected > 4000 {
		t.Errorf("prober injected %d packets on a 7-switch chain, want linear (<= 4000)", injected)
	}
}

// TestCentralMappingDirectCable covers the degenerate two-NIC fabric: the
// empty-route probe finds the peer and no switch exploration happens.
func TestCentralMappingDirectCable(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, hw.Default())
	a, b := n.AddNIC(), n.AddNIC()
	// No public NIC-to-NIC cabling helper; wire the endpoints directly.
	a.peer = endpoint{kind: kindNIC, id: b.ID}
	b.peer = endpoint{kind: kindNIC, id: a.ID}
	tables := mapFabric(t, e, n, 2, 20*sim.Microsecond)
	if r, ok := tables[a.ID][b.ID]; !ok || len(r) != 0 {
		t.Errorf("a->b route = %v,%v, want empty route", r, ok)
	}
	if r, ok := tables[b.ID][a.ID]; !ok || len(r) != 0 {
		t.Errorf("b->a route = %v,%v, want empty route", r, ok)
	}
}

// buildDiamond wires two edge switches, each hosting half the nodes,
// cross-connected through two hostless spine switches — the redundant
// fabric the self-healing layer fails over on.
func buildDiamond(t *testing.T, e *sim.Engine, hosts int) *Network {
	t.Helper()
	n := New(e, hw.Default())
	edge0, edge1, spineA, spineB := n.AddSwitch(8), n.AddSwitch(8), n.AddSwitch(8), n.AddSwitch(8)
	for _, c := range []struct {
		a  *Switch
		ap int
		b  *Switch
		bp int
	}{{edge0, 6, spineA, 0}, {edge0, 7, spineB, 0}, {edge1, 6, spineA, 1}, {edge1, 7, spineB, 1}} {
		if err := n.ConnectSwitches(c.a, c.ap, c.b, c.bp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hosts; i++ {
		sw, port := edge0, i
		if i >= hosts/2 {
			sw, port = edge1, i-hosts/2
		}
		if err := n.AttachNIC(n.AddNIC(), sw, port); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestCentralMappingIsOneRemapRound pins what lets the boot mapper and the
// post-boot remap service share their code: on a connected fabric the
// tables MapFabric hands the VMMC LCPs are exactly those a Remap.Probe
// round from the first NIC computes on the same fabric with live
// responders, and both finish at the same virtual time — boot makes no
// second round.
func TestCentralMappingIsOneRemapRound(t *testing.T) {
	timeout := 20*sim.Microsecond + sim.Time(16)*hw.Default().SwitchLatency
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, e *sim.Engine) *Network
	}{
		{"6-switch chain", func(t *testing.T, e *sim.Engine) *Network { return buildChain(t, e, 6, 34) }},
		{"diamond", func(t *testing.T, e *sim.Engine) *Network { return buildDiamond(t, e, 8) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			tables := mapFabric(t, e, tc.build(t, e), 8, timeout)

			e2 := sim.NewEngine()
			n := tc.build(t, e2)
			r := NewRemap(n)
			for _, nic := range n.NICs() {
				e2.Go("responder", func(p *sim.Proc) {
					p.SetDaemon(true)
					for {
						if _, route, reply := r.HandlePacket(nic, nic.RX.Get(p)); reply != nil {
							nic.Send(p, route, reply)
						}
					}
				})
			}
			var probed map[int]RouteTable
			e2.Go("prober", func(p *sim.Proc) { probed = r.Probe(p, n.NICs()[0], 8, timeout) })
			if err := e2.Run(); err != nil {
				t.Fatal(err)
			}

			if len(probed) != len(n.NICs()) {
				t.Fatalf("probe round mapped %d hosts of %d", len(probed), len(n.NICs()))
			}
			if !reflect.DeepEqual(tables, probed) {
				t.Errorf("boot tables differ from a Remap.Probe round's:\n%v\n%v", tables, probed)
			}
			if e.Now() != e2.Now() {
				t.Errorf("boot mapping ended at %v, the probe round at %v", e.Now(), e2.Now())
			}
		})
	}
}
