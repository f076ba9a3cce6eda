package vmmc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The optional data-link reliability layer (the research line's VMMC-2
// future work). The paper's configuration drops CRC-damaged packets
// (§4.2); with Options.Reliable the same damage is recovered by go-back-N
// retransmission, at a measurable software cost — quantifying exactly the
// trade-off §4.2 describes.

func reliableCluster(t *testing.T, fn func(p *simProc, c *Cluster)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := NewCluster(eng, Options{Nodes: 2, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.VerifyIntact()
	c.Go("workload", func(p *simProc) { fn(p, c) })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
}

func TestReliableDeliveryBasic(t *testing.T) {
	reliableCluster(t, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(4 * mem.PageSize)
		if err := recv.Export(p, 1, buf, 4*mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(4 * mem.PageSize)
		msg := bytes.Repeat([]byte{0xC3}, 3*mem.PageSize)
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, len(msg), SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinByte(p, buf+mem.VirtAddr(len(msg)-1), 0xC3)
		got, _ := recv.Read(buf, len(msg))
		if !bytes.Equal(got, msg) {
			t.Error("reliable transfer corrupted")
		}
	})
}

func TestReliableRecoversFromCRCErrors(t *testing.T) {
	reliableCluster(t, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 16 * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(size)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*7 + 3)
		}
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}

		// Corrupt a burst of packets mid-transfer (per-link fault plan on
		// the sender's cable).
		pl := fault.NewPlan(c.Eng, 1)
		c.Net.SetFaults(pl)
		pl.CorruptNextOn(c.Nodes[0].Board.NIC.ID, 5)
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinUntil(p, func() bool {
			got, err := recv.Read(buf+size-1, 1)
			return err == nil && got[0] == msg[size-1]
		})
		// Give stragglers time, then verify every byte arrived exactly.
		p.Sleep(5 * sim.Millisecond)
		got, _ := recv.Read(buf, size)
		if !bytes.Equal(got, msg) {
			for i := range got {
				if got[i] != msg[i] {
					t.Fatalf("first corruption at byte %d despite reliability", i)
				}
			}
		}
		if n := boardCounter(t, c.Nodes[1], "rl_corrupt_drops"); n != 5 {
			t.Errorf("corrupt drops = %d, want 5", n)
		}
		if boardCounter(t, c.Nodes[0], "rl_retransmits") == 0 {
			t.Error("no retransmissions despite drops")
		}
	})
}

// TestLongRoutesAckTheirWindows sends across a 64-node switch chain, to
// node 40 over a 7-byte route and to node 63 over an 11-byte one, on a
// clean fabric. Every ack must trim the window it acknowledges however long
// the route: no retransmission, no healthy peer declared unreachable, and
// nothing left unacknowledged once the cluster is quiet.
func TestLongRoutesAckTheirWindows(t *testing.T) {
	for _, tc := range []struct{ dst, hops int }{{40, 7}, {63, 11}} {
		t.Run(fmt.Sprintf("node%d", tc.dst), func(t *testing.T) {
			c := startCluster(t, Options{Nodes: 64, MemBytes: 1 << 20, Reliable: true}, true, func(p *simProc, c *Cluster) {
				if n := len(c.Nodes[0].LCP.Routes(tc.dst)); n != tc.hops {
					t.Errorf("route 0->%d is %d bytes, want %d", tc.dst, n, tc.hops)
					return
				}
				recv, _ := c.Nodes[tc.dst].NewProcess(p)
				send, _ := c.Nodes[0].NewProcess(p)
				buf, _ := recv.Malloc(mem.PageSize)
				if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
					t.Error(err)
					return
				}
				dest, _, err := send.Import(p, tc.dst, 1)
				if err != nil {
					t.Error(err)
					return
				}
				src, _ := send.Malloc(mem.PageSize)
				for i := 0; i < 8; i++ {
					if err := send.Write(src, []byte{byte(i + 1)}); err != nil {
						t.Error(err)
						return
					}
					if err := send.SendMsgChecked(p, src, dest+ProxyAddr(i), 1, SendOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
				recv.SpinByte(p, buf+7, 8)
			})
			n := c.Nodes[0]
			retx, unreachable := boardCounter(t, n, "rl_retransmits"), boardCounter(t, n, "rl_unreachable")
			if unacked := n.Board.Reliable().Unacked(0); retx != 0 || unreachable != 0 || unacked != 0 {
				t.Errorf("retransmits = %d, unreachables = %d, unacked = %d, want all 0",
					retx, unreachable, unacked)
			}
		})
	}
}

func TestUnreliableLosesWhatReliableRecovers(t *testing.T) {
	// The paper's configuration under the same fault load: data is lost
	// (and the LCP counts CRC errors), no corruption, no recovery.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 16 * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(size)
		msg := bytes.Repeat([]byte{0x77}, size)
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		pl := fault.NewPlan(c.Eng, 1)
		c.Net.SetFaults(pl)
		pl.CorruptNextOn(c.Nodes[0].Board.NIC.ID, 5)
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * sim.Millisecond)
		if got := nodeCounter(t, c.Nodes[1], "lcp_crc_errors"); got != 5 {
			t.Errorf("CRC errors = %d, want 5", got)
		}
		// Five pages' worth of chunks never arrived.
		got, _ := recv.Read(buf, size)
		missing := 0
		for _, b := range got {
			if b != 0x77 {
				missing++
			}
		}
		if missing == 0 {
			t.Error("no data lost despite CRC drops and no recovery")
		}
	})
}

func TestReliabilityCost(t *testing.T) {
	// §4.2's rationale quantified: the link layer costs latency and
	// bandwidth on clean networks.
	measure := func(reliable bool) (latUs, mbps float64) {
		eng := sim.NewEngine()
		eng.VerifySkips()
		c, err := NewCluster(eng, Options{Nodes: 2, Reliable: reliable})
		if err != nil {
			t.Fatal(err)
		}
		c.Net.VerifyIntact()
		c.Go("bench", func(p *simProc) {
			recv, _ := c.Nodes[1].NewProcess(p)
			send, _ := c.Nodes[0].NewProcess(p)
			const window = 256 * mem.PageSize
			buf, _ := recv.Malloc(window)
			if err := recv.Export(p, 1, buf, window, nil, false); err != nil {
				t.Fatal(err)
			}
			dest, _, _ := send.Import(p, 1, 1)
			src, _ := send.Malloc(window)

			// Latency: 32 one-byte round-trip-ish sends (wait delivery).
			start := p.Now()
			for i := 0; i < 32; i++ {
				marker := byte(i + 1)
				if err := send.Write(src, []byte{marker}); err != nil {
					t.Fatal(err)
				}
				if err := send.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
					t.Fatal(err)
				}
				recv.SpinByte(p, buf, marker)
			}
			latUs = (p.Now() - start).Micros() / 32

			// Bandwidth: stream the window a few times.
			start = p.Now()
			for i := 0; i < 4; i++ {
				if err := send.SendMsgSync(p, src, dest, window, SendOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			mbps = float64(4*window) / (p.Now() - start).Seconds() / 1e6
		})
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return latUs, mbps
	}
	lat0, bw0 := measure(false)
	lat1, bw1 := measure(true)
	t.Logf("unreliable: %.2f us, %.1f MB/s; reliable: %.2f us, %.1f MB/s", lat0, bw0, lat1, bw1)
	if lat1 <= lat0 {
		t.Errorf("reliability added no latency: %.2f vs %.2f", lat1, lat0)
	}
	if bw1 >= bw0 {
		t.Errorf("reliability added no bandwidth cost: %.1f vs %.1f", bw1, bw0)
	}
	// The overhead should be real but not catastrophic on a clean network.
	if lat1 > lat0*1.5 || bw1 < bw0*0.7 {
		t.Errorf("reliability cost implausibly high: %.2f->%.2f us, %.1f->%.1f MB/s", lat0, lat1, bw0, bw1)
	}
}

func TestReliabilityWindowCompetesForSRAM(t *testing.T) {
	// The retransmit window is real SRAM: with 64 MB of host memory the
	// incoming page table takes 64 KB and the window ~130 KB, so after
	// the LCP's own needs there is no room left to register even one
	// process — resource exhaustion by design, as §4.4 describes for the
	// interface generally.
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := NewCluster(eng, Options{Nodes: 2, MemBytes: 64 << 20, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.VerifyIntact()
	var procErr error
	c.Go("probe", func(p *simProc) {
		_, procErr = c.Nodes[0].NewProcess(p)
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if procErr == nil {
		t.Error("process registration fit despite the reliability window consuming the SRAM; budget not enforced")
	}
}

// TestSendAfterRepairDelivers cuts a live peer's link for long enough that
// three windows toward it are declared unreachable, repairs it, and sends
// again: every page a send reports delivered after the repair must land. A
// window discarded by a verdict used to take its sequence numbers with it,
// so the next window started again at zero; the receiver, still expecting
// the old sequence, dropped the first three pages as duplicates — and
// acknowledged them, so their sends reported success for pages that never
// arrived.
func TestSendAfterRepairDelivers(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 1)
	cfg := lanai.DefaultReliability()
	cfg.MaxRetries = 2
	cfg.AckDelay = 25 * sim.Microsecond
	c, err := NewCluster(eng, Options{Nodes: 2, Reliable: true, Reliability: &cfg, Faults: pl})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.VerifyIntact()
	const pages = 10 // 3 before the outage, 3 into it, 4 after the repair
	c.Go("repair", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(pages * mem.PageSize)
		if err := recv.Export(p, 1, buf, pages*mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(mem.PageSize)
		page := func(i int) {
			if err := send.Write(src, bytes.Repeat([]byte{byte(i + 1)}, mem.PageSize)); err != nil {
				t.Fatal(err)
			}
			if err := send.SendMsgChecked(p, src, dest+ProxyAddr(i*mem.PageSize), mem.PageSize, SendOptions{}); err != nil {
				t.Errorf("page %d: %v", i, err)
			}
		}
		for i := 0; i < 3; i++ {
			page(i)
			recv.SpinByte(p, buf+mem.VirtAddr((i+1)*mem.PageSize-1), byte(i+1))
		}
		repair := p.Now() + 20*sim.Millisecond
		pl.LinkOutage(c.Nodes[1].Board.NIC.ID, p.Now(), repair)
		for i := 3; i < 6; i++ {
			page(i) // its window dies with it
			for boardCounter(t, c.Nodes[0], "rl_unreachable") < int64(i-2) {
				p.Sleep(100 * sim.Microsecond)
			}
		}
		p.Sleep(repair - p.Now())
		for i := 6; i < pages; i++ {
			page(i)
		}
		recv.SpinByte(p, buf+pages*mem.PageSize-1, pages)
		got, _ := recv.Read(buf, pages*mem.PageSize)
		for i := 6; i < pages; i++ {
			if got[i*mem.PageSize] != byte(i+1) {
				t.Errorf("page %d, sent after the repair, never landed", i)
			}
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if n := boardCounter(t, c.Nodes[0], "rl_unreachable"); n != 3 {
		t.Errorf("%d unreachable verdicts, want 3", n)
	}
	if n := boardCounter(t, c.Nodes[1], "rl_dup_drops"); n != 0 {
		t.Errorf("%d packets of the window after the repair dropped as duplicates", n)
	}
}
