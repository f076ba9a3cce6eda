package myrinet

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Route-resolution edge cases: zero-length and truncated routes, bogus
// ports, overlong routes, and multi-hop ingress reversal — plus the
// net/route_drops accounting each kind of death must feed.

// chain3 builds sw0 -7-6- sw1 -7-6- sw2 with host a on sw0 port 0 and
// host b on sw2 port 1.
func chain3(t *testing.T) (*sim.Engine, *Network, *NIC, *NIC) {
	t.Helper()
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
	if err := n.AttachNIC(b, sws[2], 1); err != nil {
		t.Fatal(err)
	}
	return e, n, a, b
}

func TestWalkRouteResolutionEdges(t *testing.T) {
	_, n, a, b := chain3(t)

	cases := []struct {
		name   string
		from   *NIC
		route  []byte
		reason string
	}{
		{"zero-length route dies in the first switch", a, nil, "route exhausted inside switch 0"},
		{"route exhausted mid-chain", a, []byte{7}, "route exhausted inside switch 1"},
		{"nonexistent output port", a, []byte{9}, "switch 0 has no port 9"},
		{"dangling port", a, []byte{4}, "dangling link"},
		{"route bytes left at the destination NIC", a, []byte{7, 7, 1, 3}, "reached NIC 1 with 1 route bytes left"},
		{"valid three-hop route", a, []byte{7, 7, 1}, ""},
		{"valid reverse three-hop route", b, []byte{6, 6, 0}, ""},
	}
	for _, tc := range cases {
		dst, _, _, reason := n.walk(tc.from, tc.route, nil)
		if tc.reason == "" {
			if dst == nil {
				t.Errorf("%s: died with %q, want delivery", tc.name, reason)
			}
			continue
		}
		if dst != nil {
			t.Errorf("%s: walk reached NIC %d, want death", tc.name, dst.ID)
			continue
		}
		if reason != tc.reason {
			t.Errorf("%s: reason = %q, want %q", tc.name, reason, tc.reason)
		}
	}
}

// TestRouteDropCounting sends packets that die resolving their route and
// checks the dedicated route-drop counter, the net/route_drops metric,
// and the per-death reason string — the observability the silent
// hardware-style drop otherwise hides.
func TestRouteDropCounting(t *testing.T) {
	e, n, a, _ := chain3(t)
	e.Go("sender", func(p *sim.Proc) {
		a.Send(p, nil, []byte("dies in sw0"))         // route exhausted
		a.Send(p, []byte{7}, []byte("dies in sw1"))   // route exhausted deeper
		a.Send(p, []byte{4}, []byte("dies dangling")) // dangling port
		a.Send(p, []byte{7, 7, 1}, []byte("arrives")) // fine
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, e, "net/route_drops"); got != 3 {
		t.Errorf("net/route_drops = %d, want 3", got)
	}
	if got := counter(t, e, "net/packets_dropped"); got != 3 {
		t.Errorf("net/packets_dropped = %d, want 3", got)
	}
	if reason := n.lastDrop; reason != "dangling link" {
		t.Errorf("last drop reason = %q, want %q", reason, "dangling link")
	}
}

// TestReverseRouteThreeHops pings across three switches and echoes on the
// reversed ingress: the reply must land, its own ingress must be the
// mirror image, and reversing *that* must reproduce the original route —
// the invariant the remap service's probe replies stand on.
func TestReverseRouteThreeHops(t *testing.T) {
	e, _, a, b := chain3(t)
	forward := []byte{7, 7, 1}
	var pong *Packet
	e.Go("echo", func(p *sim.Proc) {
		pk := b.RX.Get(p)
		// Entered sw0 at port 0, sw1 at 6, sw2 at 6.
		if len(pk.Ingress) != 3 || pk.Ingress[0] != 0 || pk.Ingress[1] != 6 || pk.Ingress[2] != 6 {
			t.Errorf("ping ingress = %v, want [0 6 6]", pk.Ingress)
		}
		b.Send(p, ReverseRoute(pk.Ingress), []byte("pong"))
	})
	e.Go("ping", func(p *sim.Proc) {
		a.Send(p, forward, []byte("ping"))
		pong = a.RX.Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pong == nil || string(pong.Payload) != "pong" {
		t.Fatalf("three-hop reversed reply not delivered: %v", pong)
	}
	// The reply entered sw2 at port 1, sw1 at 7, sw0 at 7; reversing its
	// ingress reproduces the original forward route.
	rev := ReverseRoute(pong.Ingress)
	if len(rev) != len(forward) {
		t.Fatalf("reversed reply ingress = %v, want length %d", rev, len(forward))
	}
	for i := range forward {
		if rev[i] != forward[i] {
			t.Fatalf("reversed reply ingress = %v, want %v", rev, forward)
		}
	}
}

// TestReverseRouteZeroLength pins the degenerate case: an empty ingress
// (a packet that crossed no switch) reverses to an empty route.
func TestReverseRouteZeroLength(t *testing.T) {
	if got := ReverseRoute(nil); len(got) != 0 {
		t.Errorf("ReverseRoute(nil) = %v, want empty", got)
	}
	if got := ReverseRoute([]byte{}); len(got) != 0 {
		t.Errorf("ReverseRoute([]) = %v, want empty", got)
	}
}
