package myrinet

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Topology stress for the mapper: trees, partitions, and depth limits.

func TestMappingTreeOfSwitches(t *testing.T) {
	//        sw0
	//       /    \
	//     sw1    sw2
	//    /   \      \
	//  n0,n1  (n2)   n3      (hosts hang off sw1, sw1, sw2)
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw0, sw1, sw2 := n.AddSwitch(8), n.AddSwitch(8), n.AddSwitch(8)
	if err := n.ConnectSwitches(sw0, 0, sw1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectSwitches(sw0, 1, sw2, 0); err != nil {
		t.Fatal(err)
	}
	hosts := []struct {
		sw   *Switch
		port int
	}{
		{sw1, 2}, {sw1, 3}, {sw1, 4}, {sw2, 2},
	}
	for i, h := range hosts {
		nic := n.AddNIC()
		if err := n.AttachNIC(nic, h.sw, h.port); err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}
	tables := mapFabric(t, e, n, 4, 20*sim.Microsecond)
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			route, ok := tables[src][dst]
			if !ok {
				t.Fatalf("no route %d->%d", src, dst)
			}
			got, _, _, reason := n.walk(n.NICs()[src], route, nil)
			if got == nil || got.ID != dst {
				t.Errorf("route %d->%d = %v invalid: %s", src, dst, route, reason)
			}
		}
	}
	// Hosts 0 and 3 are three hops apart (sw1 -> sw0 -> sw2).
	if r := tables[0][3]; len(r) != 3 {
		t.Errorf("route 0->3 = %v, want 3 hops", r)
	}
}

func TestMappingDepthLimitHidesDistantHosts(t *testing.T) {
	// A chain sw0-sw1-sw2 with a host on each end: depth 1 cannot see
	// across three switches; depth 3 can.
	build := func() (*sim.Engine, *Network) {
		e := sim.NewEngine()
		n := New(e, hw.Default())
		sws := []*Switch{n.AddSwitch(8), n.AddSwitch(8), n.AddSwitch(8)}
		if err := n.ConnectSwitches(sws[0], 7, sws[1], 6); err != nil {
			t.Fatal(err)
		}
		if err := n.ConnectSwitches(sws[1], 7, sws[2], 6); err != nil {
			t.Fatal(err)
		}
		a, b := n.AddNIC(), n.AddNIC()
		if err := n.AttachNIC(a, sws[0], 0); err != nil {
			t.Fatal(err)
		}
		if err := n.AttachNIC(b, sws[2], 0); err != nil {
			t.Fatal(err)
		}
		return e, n
	}

	e, n := build()
	tables := mapFabric(t, e, n, 1, 20*sim.Microsecond)
	if _, ok := tables[0][1]; ok {
		t.Error("depth-1 mapping found a 3-hop host")
	}

	e, n = build()
	tables = mapFabric(t, e, n, 3, 20*sim.Microsecond)
	if r, ok := tables[0][1]; !ok || len(r) != 3 {
		t.Errorf("depth-3 mapping route = %v,%v, want 3 hops", r, ok)
	}
}

func TestMappingHostlessChain(t *testing.T) {
	// sw0-sw1-sw2-sw3 with hosts only on the ends: the first round's
	// silent cutoff abandons the two hostless switches, so host b gets no
	// table, and b's own round (cutoff one level wider) maps the chain.
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sws := []*Switch{n.AddSwitch(8), n.AddSwitch(8), n.AddSwitch(8), n.AddSwitch(8)}
	for i := 1; i < len(sws); i++ {
		if err := n.ConnectSwitches(sws[i-1], 7, sws[i], 6); err != nil {
			t.Fatal(err)
		}
	}
	a, b := n.AddNIC(), n.AddNIC()
	if err := n.AttachNIC(a, sws[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachNIC(b, sws[3], 0); err != nil {
		t.Fatal(err)
	}
	tables := mapFabric(t, e, n, 5, 20*sim.Microsecond)
	for _, pair := range [][2]*NIC{{a, b}, {b, a}} {
		route, ok := tables[pair[0].ID][pair[1].ID]
		if got, _, _, reason := n.walk(pair[0], route, nil); !ok || got != pair[1] {
			t.Errorf("route %d->%d = %v,%v invalid: %s", pair[0].ID, pair[1].ID, route, ok, reason)
		}
	}
}

func TestMappingPartitionedFabric(t *testing.T) {
	// Two disconnected switches: hosts see only their own island.
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw0, sw1 := n.AddSwitch(8), n.AddSwitch(8)
	for i := 0; i < 2; i++ {
		nic := n.AddNIC()
		if err := n.AttachNIC(nic, sw0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		nic := n.AddNIC()
		if err := n.AttachNIC(nic, sw1, i); err != nil {
			t.Fatal(err)
		}
	}
	tables := mapFabric(t, e, n, 3, 20*sim.Microsecond)
	if _, ok := tables[0][1]; !ok {
		t.Error("same-island route missing")
	}
	if _, ok := tables[0][2]; ok {
		t.Error("route across a partition discovered")
	}
	if _, ok := tables[2][3]; !ok {
		t.Error("second island's internal route missing")
	}
}

func TestCRCStormDoesNotWedgeTheSystem(t *testing.T) {
	// Inject corruption into a burst of packets mid-stream: the receiver
	// drops them all (no recovery, §4.2) and later traffic still flows.
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw := n.AddSwitch(8)
	a, b := n.AddNIC(), n.AddNIC()
	if err := n.AttachNIC(a, sw, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachNIC(b, sw, 1); err != nil {
		t.Fatal(err)
	}
	pl := fault.NewPlan(e, 1)
	n.SetFaults(pl)
	corrupted, clean := 0, 0
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			pk := b.RX.Get(p)
			if pk.CheckCRC() {
				clean++
			} else {
				corrupted++
			}
		}
	})
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			a.Send(p, []byte{1}, []byte{byte(i)})
		}
		pl.CorruptNextOn(a.ID, 10)
		for i := 5; i < 15; i++ {
			a.Send(p, []byte{1}, []byte{byte(i)})
		}
		for i := 15; i < 20; i++ {
			a.Send(p, []byte{1}, []byte{byte(i)})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if corrupted != 10 || clean != 10 {
		t.Errorf("corrupted=%d clean=%d, want 10/10", corrupted, clean)
	}
}

func TestNICStats(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw := n.AddSwitch(8)
	a, b := n.AddNIC(), n.AddNIC()
	if err := n.AttachNIC(a, sw, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachNIC(b, sw, 1); err != nil {
		t.Fatal(err)
	}
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.RX.Get(p)
		}
	})
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			a.Send(p, []byte{1}, []byte("x"))
		}
		a.Send(p, []byte{7}, []byte("dead")) // unconnected port
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"nic0/packets_injected", 4}, {"nic0/packets_delivered", 0},
		{"nic1/packets_injected", 0}, {"nic1/packets_delivered", 3},
		{"net/packets_dropped", 1},
	} {
		if got := counter(t, e, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if n.lastDrop == "" {
		t.Error("the drop left no reason")
	}
}

func TestMappingSurvivesLossyLink(t *testing.T) {
	// Host 2's cable corrupts every packet: its probes and the probes sent
	// to it all fail CRC at the receiving end. Mapping must still
	// terminate — probe timeouts, not hangs — and produce the partial map
	// covering the healthy hosts.
	e := sim.NewEngine()
	n := New(e, hw.Default())
	pl := fault.NewPlan(e, 7)
	n.SetFaults(pl)
	sw := n.AddSwitch(8)
	for i := 0; i < 3; i++ {
		nic := n.AddNIC()
		if err := n.AttachNIC(nic, sw, i); err != nil {
			t.Fatal(err)
		}
	}
	pl.SetLinkBER(n.NICs()[2].ID, 1.0)

	tables := mapFabric(t, e, n, 2, 20*sim.Microsecond)
	if _, ok := tables[0][1]; !ok {
		t.Error("healthy route 0->1 missing")
	}
	if _, ok := tables[1][0]; !ok {
		t.Error("healthy route 1->0 missing")
	}
	for _, pair := range [][2]int{{0, 2}, {1, 2}, {2, 0}, {2, 1}} {
		if _, ok := tables[pair[0]][pair[1]]; ok {
			t.Errorf("route %d->%d discovered across the lossy link", pair[0], pair[1])
		}
	}
	if counter(t, e, "fault/corruptions") == 0 {
		t.Error("no corruptions injected on the lossy link")
	}
}
