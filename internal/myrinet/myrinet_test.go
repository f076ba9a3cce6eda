package myrinet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

func TestCRC8KnownValues(t *testing.T) {
	if CRC8(nil) != 0 {
		t.Errorf("CRC8(nil) = %#x, want 0", CRC8(nil))
	}
	// CRC-8/ATM check value: "123456789" -> 0xF4.
	if got := CRC8([]byte("123456789")); got != 0xF4 {
		t.Errorf("CRC8(123456789) = %#x, want 0xF4", got)
	}
}

func TestCRC8DetectsSingleBitErrors(t *testing.T) {
	data := []byte("myrinet packet payload for crc check")
	orig := CRC8(data)
	for i := range data {
		for b := 0; b < 8; b++ {
			data[i] ^= 1 << b
			if CRC8(data) == orig {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, b)
			}
			data[i] ^= 1 << b
		}
	}
}

// CRC property: flipping any single bit of any payload changes the CRC.
func TestCRC8SingleBitProperty(t *testing.T) {
	f := func(data []byte, pos uint16) bool {
		if len(data) == 0 {
			return true
		}
		i := int(pos) % (len(data) * 8)
		orig := CRC8(data)
		data[i/8] ^= 1 << (i % 8)
		changed := CRC8(data) != orig
		data[i/8] ^= 1 << (i % 8)
		return changed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// star4 builds the paper's hardware: 4 NICs on one 8-port switch.
func star4(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw := n.AddSwitch(8)
	for i := 0; i < 4; i++ {
		nic := n.AddNIC()
		if err := n.AttachNIC(nic, sw, i); err != nil {
			t.Fatal(err)
		}
	}
	return e, n
}

func TestSendDeliversAlongRoute(t *testing.T) {
	e, n := star4(t)
	nics := n.NICs()
	payload := []byte("hello myrinet")
	var got *Packet
	e.Go("recv", func(p *sim.Proc) {
		got = nics[2].RX.Get(p)
	})
	e.Go("send", func(p *sim.Proc) {
		nics[0].Send(p, []byte{2}, payload)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload = %q, want %q", got.Payload, payload)
	}
	if !got.CheckCRC() {
		t.Error("CRC check failed on clean delivery")
	}
	if len(got.Ingress) != 1 || got.Ingress[0] != 0 {
		t.Errorf("ingress = %v, want [0]", got.Ingress)
	}
}

// counter reads a registered counter off e's metrics; a name nothing
// registered fails the test.
func counter(t *testing.T, e *sim.Engine, name string) int64 {
	t.Helper()
	v, ok := e.MetricsSnapshot().Counter(name)
	if !ok {
		t.Errorf("no counter %q", name)
	}
	return v
}

func TestSendInvalidRouteDrops(t *testing.T) {
	e, n := star4(t)
	nics := n.NICs()
	e.Go("send", func(p *sim.Proc) {
		nics[0].Send(p, []byte{7}, []byte("to empty port")) // port 7 unconnected
		nics[0].Send(p, []byte{9}, []byte("no such port"))
		nics[0].Send(p, nil, []byte("dies inside switch"))
		nics[0].Send(p, []byte{2, 3}, []byte("leftover route bytes at NIC"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dropped := counter(t, e, "net/packets_dropped"); dropped != 4 {
		t.Errorf("dropped = %d, want 4", dropped)
	}
	if _, ok := nics[2].RX.TryGet(); ok {
		t.Error("packet with leftover route bytes was delivered")
	}
}

func TestInOrderDelivery(t *testing.T) {
	e, n := star4(t)
	nics := n.NICs()
	const k = 20
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			nics[0].Send(p, []byte{1}, []byte{byte(i)})
		}
	})
	var got []byte
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			pk := nics[1].RX.Get(p)
			got = append(got, pk.Payload[0])
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if got[i] != byte(i) {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

func TestInjectionSerializationTime(t *testing.T) {
	// A 16000-byte payload at 160 MB/s is 100us on the wire, plus the
	// head-flit cost; a second packet queues behind it.
	e, n := star4(t)
	nics := n.NICs()
	var t1, t2 sim.Time
	e.Go("send", func(p *sim.Proc) {
		nics[0].Send(p, []byte{1}, make([]byte, 16000-2)) // +route+crc = 16000 wire bytes
		t1 = p.Now()
		nics[0].Send(p, []byte{1}, make([]byte, 16000-2))
		t2 = p.Now()
	})
	e.Go("recv", func(p *sim.Proc) {
		nics[1].RX.Get(p)
		nics[1].RX.Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Micros(100) + hw.Default().LinkFlitCost
	if t1 != want {
		t.Errorf("first injection done at %v, want %v", t1, want)
	}
	if t2 != 2*want {
		t.Errorf("second injection done at %v, want %v", t2, 2*want)
	}
}

func TestBitErrorInjectionBreaksCRC(t *testing.T) {
	e, n := star4(t)
	nics := n.NICs()
	pl := fault.NewPlan(e, 1)
	n.SetFaults(pl)
	pl.CorruptNextOn(nics[0].ID, 1)
	var bad, good *Packet
	e.Go("recv", func(p *sim.Proc) {
		bad = nics[1].RX.Get(p)
		good = nics[1].RX.Get(p)
	})
	e.Go("send", func(p *sim.Proc) {
		nics[0].Send(p, []byte{1}, []byte("corrupt me"))
		nics[0].Send(p, []byte{1}, []byte("leave me alone"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if bad.CheckCRC() {
		t.Error("injected bit error not detected by CRC")
	}
	if !good.CheckCRC() {
		t.Error("uncorrupted packet failed CRC")
	}
}

func TestMultiSwitchRouting(t *testing.T) {
	// nic0 - sw0 -(port3..port5)- sw1 - nic1
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw0 := n.AddSwitch(8)
	sw1 := n.AddSwitch(8)
	if err := n.ConnectSwitches(sw0, 3, sw1, 5); err != nil {
		t.Fatal(err)
	}
	nic0, nic1 := n.AddNIC(), n.AddNIC()
	if err := n.AttachNIC(nic0, sw0, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachNIC(nic1, sw1, 1); err != nil {
		t.Fatal(err)
	}
	var got *Packet
	e.Go("recv", func(p *sim.Proc) { got = nic1.RX.Get(p) })
	e.Go("send", func(p *sim.Proc) {
		nic0.Send(p, []byte{3, 1}, []byte("two hops"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no delivery across two switches")
	}
	// Ingress: arrived at sw0 on port 0, at sw1 on port 5.
	if len(got.Ingress) != 2 || got.Ingress[0] != 0 || got.Ingress[1] != 5 {
		t.Errorf("ingress = %v, want [0 5]", got.Ingress)
	}
	// Reverse route must deliver a reply.
	rev := ReverseRoute(got.Ingress)
	if rev[0] != 5 || rev[1] != 0 {
		t.Errorf("reverse route = %v, want [5 0]", rev)
	}
}

func TestReverseRouteRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw0, sw1 := n.AddSwitch(8), n.AddSwitch(8)
	if err := n.ConnectSwitches(sw0, 7, sw1, 6); err != nil {
		t.Fatal(err)
	}
	a, b := n.AddNIC(), n.AddNIC()
	if err := n.AttachNIC(a, sw0, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachNIC(b, sw1, 3); err != nil {
		t.Fatal(err)
	}
	var echoed *Packet
	e.Go("echo", func(p *sim.Proc) {
		pk := b.RX.Get(p)
		b.Send(p, ReverseRoute(pk.Ingress), []byte("pong"))
	})
	e.Go("ping", func(p *sim.Proc) {
		a.Send(p, []byte{7, 3}, []byte("ping"))
		echoed = a.RX.Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if echoed == nil || string(echoed.Payload) != "pong" {
		t.Fatalf("reverse-route reply not delivered: %v", echoed)
	}
}

func TestAttachErrors(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw := n.AddSwitch(4)
	a, b := n.AddNIC(), n.AddNIC()
	if err := n.AttachNIC(a, sw, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachNIC(b, sw, 0); err == nil {
		t.Error("double-attaching a port succeeded")
	}
	if err := n.AttachNIC(a, sw, 1); err == nil {
		t.Error("re-attaching a NIC succeeded")
	}
	if err := n.ConnectSwitches(sw, 0, sw, 2); err == nil {
		t.Error("connecting to an occupied port succeeded")
	}
}

func TestMappingStar(t *testing.T) {
	e, n := star4(t)
	tables := mapFabric(t, e, n, 3, 20*sim.Microsecond)
	if len(tables) != 4 {
		t.Fatalf("mapped %d nodes, want 4", len(tables))
	}
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if dst == src {
				continue
			}
			route, ok := tables[src][dst]
			if !ok {
				t.Fatalf("node %d has no route to %d", src, dst)
			}
			if len(route) != 1 || route[0] != byte(dst) {
				t.Errorf("route %d->%d = %v, want [%d]", src, dst, route, dst)
			}
		}
	}
}

func TestMappingTwoSwitches(t *testing.T) {
	// 2 NICs per switch, switches linked: routes across need 2 hops.
	e := sim.NewEngine()
	n := New(e, hw.Default())
	sw0, sw1 := n.AddSwitch(8), n.AddSwitch(8)
	if err := n.ConnectSwitches(sw0, 7, sw1, 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := n.AttachNIC(n.AddNIC(), sw0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := n.AttachNIC(n.AddNIC(), sw1, i); err != nil {
			t.Fatal(err)
		}
	}
	tables := mapFabric(t, e, n, 3, 20*sim.Microsecond)
	// Every node reaches every other; verify by walking each route.
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if dst == src {
				continue
			}
			route, ok := tables[src][dst]
			if !ok {
				t.Fatalf("node %d has no route to %d", src, dst)
			}
			got, _, _, reason := n.walk(n.NICs()[src], route, nil)
			if got == nil || got.ID != dst {
				t.Errorf("route %d->%d = %v lands wrong (%v, %s)", src, dst, route, got, reason)
			}
		}
	}
	// Cross-switch routes are two hops.
	if r := tables[0][2]; len(r) != 2 {
		t.Errorf("cross-switch route = %v, want 2 hops", r)
	}
}

func TestMappingDirectNICToNIC(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, hw.Default())
	a, b := n.AddNIC(), n.AddNIC()
	a.peer = endpoint{kind: kindNIC, id: b.ID}
	b.peer = endpoint{kind: kindNIC, id: a.ID}
	tables := mapFabric(t, e, n, 2, 20*sim.Microsecond)
	if r, ok := tables[0][1]; !ok || len(r) != 0 {
		t.Errorf("direct route = %v,%v, want empty route", r, ok)
	}
}
