package vmmc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// Self-healing layer: transient link outages heal with zero app-visible
// errors, switch deaths on redundant fabrics fail over to alternate
// routes, hopeless outages still drain to ErrNodeUnreachable within the
// round budget, and node restarts invalidate (then revalidate) imports.

// healRel is a reliability tuning that stalls quickly, so heal tests spend
// their virtual time on healing rather than on the retransmit budget.
func healRel() *lanai.ReliabilityConfig {
	cfg := lanai.DefaultReliability()
	cfg.MaxRetries = 4
	cfg.AckDelay = 25 * sim.Microsecond
	return &cfg
}

// TestLinkOutageHealsTransparently cuts the receiver's link for a few
// milliseconds mid-stream. The sender's window stalls and suspends, remap
// rounds fail while the link is dark, and the first round after repair
// resumes the window: every message is delivered byte-exact with zero
// application-visible errors.
func TestLinkOutageHealsTransparently(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 0x11EA)
	rel := healRel()
	c, err := NewCluster(eng, Options{
		Nodes:       2,
		Reliable:    true,
		Reliability: rel,
		Faults:      pl,
		Heal:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The receiver's cable dies shortly into the stream and comes back 8ms
	// later — longer than the retransmit budget, shorter than healMaxRounds.
	pl.LinkOutage(1, 500*sim.Microsecond, 8500*sim.Microsecond)

	const msgs = 24
	c.Go("heal-link", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		size := msgs * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(mem.PageSize)
		for i := 0; i < msgs; i++ {
			msg := bytes.Repeat([]byte{byte(i + 1)}, mem.PageSize)
			if err := send.Write(src, msg); err != nil {
				t.Error(err)
				return
			}
			err := send.SendMsgChecked(p, src, dest+ProxyAddr(i*mem.PageSize), mem.PageSize, SendOptions{})
			if err != nil {
				t.Errorf("send %d surfaced %v during a healable outage", i, err)
				return
			}
		}
		// In-order delivery: the final page landing means all landed.
		recv.SpinByte(p, buf+mem.VirtAddr(size-1), byte(msgs))
		for i := 0; i < msgs; i++ {
			got, _ := recv.Read(buf+mem.VirtAddr(i*mem.PageSize), mem.PageSize)
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, mem.PageSize)) {
				t.Errorf("message %d corrupted across the heal", i)
				return
			}
		}
		if n := send.Errors().SendFailures; n != 0 {
			t.Errorf("SendFailures = %d, want 0 (healing must be transparent)", n)
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if counter(t, eng, "heal/stalls") == 0 {
		t.Error("no stall recorded despite an outage past the retransmit budget")
	}
	if counter(t, eng, "heal/healed") == 0 {
		t.Error("no window healed despite the link coming back")
	}
	if n := counter(t, eng, "heal/abandoned"); n != 0 {
		t.Errorf("abandoned = %d, want 0", n)
	}
}

// diamondFabric wires the redundant test fabric: two edge switches, each
// hosting half the nodes, cross-connected through two spine switches. Every
// edge-to-edge path has a one-trunk detour, so a spine death is survivable.
//
//	edge0 (sw0) --6-- spineA (sw2) --1-- 6-- edge1 (sw1)
//	      \--7-- spineB (sw3) --1-- 7--/
func diamondFabric(net *myrinet.Network, nodes int) error {
	edge0 := net.AddSwitch(8)  // switch 0
	edge1 := net.AddSwitch(8)  // switch 1
	spineA := net.AddSwitch(8) // switch 2
	spineB := net.AddSwitch(8) // switch 3
	if err := net.ConnectSwitches(edge0, 6, spineA, 0); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge0, 7, spineB, 0); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge1, 6, spineA, 1); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge1, 7, spineB, 1); err != nil {
		return err
	}
	for i := 0; i < nodes; i++ {
		sw, port := edge0, i
		if i >= nodes/2 {
			sw, port = edge1, i-nodes/2
		}
		if err := net.AttachNIC(net.AddNIC(), sw, port); err != nil {
			return err
		}
	}
	return nil
}

// TestSwitchOutageFailsOverToAlternateRoute kills one spine of the diamond
// fabric permanently. The remap must discover the detour through the
// surviving spine, hot-swap it into the stalled windows, and deliver the
// whole stream with zero errors — the paper's static tables would declare
// the destination dead instead.
func TestSwitchOutageFailsOverToAlternateRoute(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 0x5111)
	rel := healRel()
	c, err := NewCluster(eng, Options{
		Nodes:       4,
		Reliable:    true,
		Reliability: rel,
		Faults:      pl,
		BuildFabric: diamondFabric,
		Heal:        true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const msgs = 12
	c.Go("heal-switch", func(p *simProc) {
		recv, _ := c.Nodes[2].NewProcess(p) // across the spines from node 0
		send, _ := c.Nodes[0].NewProcess(p)
		size := msgs * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		dest, _, err := send.Import(p, 2, 1)
		if err != nil {
			t.Error(err)
			return
		}
		// Kill whichever spine the booted route 0->2 actually crosses (the
		// first route byte is edge0's output port: 6 = spineA, 7 = spineB),
		// forever. Boot is long over, so this bites mid-stream.
		spine := 2
		if route := c.Nodes[0].LCP.routes[2]; len(route) > 0 && route[0] == 7 {
			spine = 3
		}
		pl.SwitchOutage(spine, p.Now()+50*sim.Microsecond, 0)
		src, _ := send.Malloc(mem.PageSize)
		for i := 0; i < msgs; i++ {
			msg := bytes.Repeat([]byte{byte(0x40 + i)}, mem.PageSize)
			if err := send.Write(src, msg); err != nil {
				t.Error(err)
				return
			}
			err := send.SendMsgChecked(p, src, dest+ProxyAddr(i*mem.PageSize), mem.PageSize, SendOptions{})
			if err != nil {
				t.Errorf("send %d surfaced %v despite the redundant spine", i, err)
				return
			}
		}
		recv.SpinByte(p, buf+mem.VirtAddr(size-1), byte(0x40+msgs-1))
		for i := 0; i < msgs; i++ {
			got, _ := recv.Read(buf+mem.VirtAddr(i*mem.PageSize), mem.PageSize)
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(0x40 + i)}, mem.PageSize)) {
				t.Errorf("message %d corrupted across the failover", i)
				return
			}
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if counter(t, eng, "heal/route_swaps") == 0 {
		t.Error("no route swapped: failover should reroute via the live spine")
	}
	if counter(t, eng, "heal/healed") == 0 {
		t.Error("no window healed after the spine failover")
	}
	if counter(t, eng, "fault/switch_drops") == 0 {
		t.Error("no packets died at the dead spine — outage never bit")
	}
}

// TestHealAbandonAfterBudget cuts the only path permanently: after
// healMaxRounds rounds healing must give up and surface ErrNodeUnreachable
// to the parked senders instead of suspending them forever.
func TestHealAbandonAfterBudget(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 0xABA0)
	rel := healRel()
	c, err := NewCluster(eng, Options{
		Nodes:       2,
		Reliable:    true,
		Reliability: rel,
		Faults:      pl,
		Heal:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.LinkOutage(1, 400*sim.Microsecond, 0) // forever

	c.Go("heal-abandon", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Error(err)
			return
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(mem.PageSize)
		msg := bytes.Repeat([]byte{0x7E}, 256)
		if err := send.Write(src, msg); err != nil {
			t.Error(err)
			return
		}
		// More single-packet messages than the window holds: once the path
		// dies the window fills, the sender parks, and only the abandon can
		// wake it — with the typed error.
		var sendErr error
		for i := 0; i < 64 && sendErr == nil; i++ {
			sendErr = send.SendMsgChecked(p, src, dest, len(msg), SendOptions{})
		}
		if !errors.Is(sendErr, ErrNodeUnreachable) {
			t.Errorf("send past the heal budget = %v, want ErrNodeUnreachable", sendErr)
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if counter(t, eng, "heal/stalls") == 0 {
		t.Error("no stall recorded")
	}
	if counter(t, eng, "heal/abandoned") == 0 {
		t.Error("heal never abandoned despite a permanently dead path")
	}
	if n := counter(t, eng, "heal/healed"); n != 0 {
		t.Errorf("healed = %d on a path that never came back", n)
	}
}

// TestRestartStaleImportRevalidation restarts an exporter node under the
// heal layer: the surviving importer's cached mapping must turn stale
// (sends fail with ErrImportStale instead of scribbling over a reborn
// memory), and RevalidateImport must re-run the handshake against the
// re-export and restore byte-exact delivery.
func TestRestartStaleImportRevalidation(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	rel := healRel()
	c, err := NewCluster(eng, Options{
		Nodes:       2,
		Reliable:    true,
		Reliability: rel,
		Heal:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const size = 2 * mem.PageSize
	c.Go("heal-restart", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(size)
		if err := send.Write(src, bytes.Repeat([]byte{0x11}, size)); err != nil {
			t.Error(err)
			return
		}
		if err := send.SendMsgChecked(p, src, dest, size, SendOptions{}); err != nil {
			t.Error(err)
			return
		}
		recv.SpinByte(p, buf+size-1, 0x11)

		// The exporter dies and reboots. Its physical memory is reborn:
		// the importer's cached frame list must no longer be trusted.
		c.CrashNode(1)
		p.Sleep(sim.Millisecond)
		if err := c.RestartNode(1); err != nil {
			t.Error(err)
			return
		}
		if _, err := send.SendMsg(p, src, dest, size, SendOptions{}); !errors.Is(err, ErrImportStale) {
			t.Errorf("send through stale import = %v, want ErrImportStale", err)
			return
		}
		// Revalidating before the re-export fails cleanly.
		if err := send.RevalidateImport(p, dest); err == nil {
			t.Error("revalidate succeeded with no matching re-export")
			return
		}

		// The reborn node re-exports the same buffer shape under the same
		// tag; revalidation refreshes the mapping in place.
		recv2, err := c.Nodes[1].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf2, _ := recv2.Malloc(size)
		if err := recv2.Export(p, 1, buf2, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		if err := send.RevalidateImport(p, dest); err != nil {
			t.Errorf("revalidate after re-export: %v", err)
			return
		}
		msg := bytes.Repeat([]byte{0x22}, size)
		if err := send.Write(src, msg); err != nil {
			t.Error(err)
			return
		}
		if err := send.SendMsgChecked(p, src, dest, size, SendOptions{}); err != nil {
			t.Errorf("send after revalidation: %v", err)
			return
		}
		recv2.SpinByte(p, buf2+size-1, 0x22)
		got, _ := recv2.Read(buf2, size)
		if !bytes.Equal(got, msg) {
			t.Error("post-revalidation transfer corrupted")
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if n := counter(t, c.Eng, "heal/import_revalidations"); n != 1 {
		t.Errorf("import revalidations = %d, want 1", n)
	}
}

// TestHealDepthCoversFabric pins the heal layer's probe depth: one remap
// at depth len(Net.Switches()) and healProbeTimeout must rediscover
// exactly the routes boot installed, loopback routes included — on one
// switch, on a 3-switch chain and on the diamond — so a heal round never
// loses a host that a deeper probe would have found.
func TestHealDepthCoversFabric(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		fabric func(*myrinet.Network, int) error
	}{
		{"one switch", 4, nil},
		{"3-switch chain", 13, nil},
		{"diamond", 4, diamondFabric},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.VerifySkips()
			c, err := NewCluster(eng, Options{
				Nodes:       tc.nodes,
				Reliable:    true,
				BuildFabric: tc.fabric,
				Heal:        true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var tables map[int]myrinet.RouteTable
			depth := len(c.Net.Switches())
			c.Go("probe", func(p *simProc) {
				tables = c.healer.remap.Probe(p, c.Nodes[0].Board.NIC, depth, healProbeTimeout)
			})
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			if len(tables) != tc.nodes {
				t.Fatalf("probe at depth %d mapped %d of %d hosts", depth, len(tables), tc.nodes)
			}
			for _, n := range c.Nodes {
				if !reflect.DeepEqual(tables[n.ID], n.LCP.routes) {
					t.Errorf("node %d: probe at depth %d found %v, boot installed %v",
						n.ID, depth, tables[n.ID], n.LCP.routes)
				}
			}
		})
	}
}
