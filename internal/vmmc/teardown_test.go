package vmmc

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// nodeBaseline is what a process teardown must give back on its node: the
// SRAM carve, every page lock, the incoming page-table entries of its
// exports, and its traffic class's retransmit buffers.
type nodeBaseline struct {
	sramUsed, pinnedFrames, incomingEntries, unacked int
}

func takeBaseline(n *Node, class int) nodeBaseline {
	b := nodeBaseline{sramUsed: n.Board.SRAM.Used(), unacked: n.Board.Reliable().Unacked(class)}
	for f := 0; f < n.Phys.NumFrames(); f++ {
		if n.Phys.Pinned(f) {
			b.pinnedFrames++
		}
	}
	for _, e := range n.LCP.incoming.entries {
		if e.writable {
			b.incomingEntries++
		}
	}
	return b
}

// Close, KillProcess and a node crash end in the same release tail (and
// the two abrupt ones in the same daemon scrub), so the same loaded process
// — two exports, a posted redirect, an import, a warmed TLB, and an open
// reliable window in a class of its own — must leave the same baseline
// behind whichever way it goes.
func TestTeardownPathsLeaveSameBaseline(t *testing.T) {
	const class = 3
	for _, tc := range []struct {
		name     string
		teardown func(p *simProc, c *Cluster, victim *Process)
	}{
		{"close", func(p *simProc, c *Cluster, victim *Process) {
			// The polite path withdraws the redirect first: Unexport refuses
			// while one is posted.
			if _, err := victim.CompleteRedirect(p, 1); err != nil {
				t.Fatal(err)
			}
			if err := victim.Close(p); err != nil {
				t.Fatal(err)
			}
		}},
		{"kill", func(p *simProc, c *Cluster, victim *Process) {
			c.Nodes[0].KillProcess(victim.Pid)
			if n := c.Nodes[0].Board.Reliable().Unacked(class); n != 0 {
				t.Errorf("%d packets still buffered for the killed class", n)
			}
		}},
		{"crash", func(p *simProc, c *Cluster, victim *Process) {
			c.CrashNode(0)
			if err := c.RestartNode(0); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reliableCluster(t, func(p *simProc, c *Cluster) {
				node := c.Nodes[0]
				peer, _ := c.Nodes[1].NewProcess(p)
				const size = 3 * mem.PageSize
				peerBuf, _ := peer.Malloc(size)
				if err := peer.Export(p, 9, peerBuf, size, nil, false); err != nil {
					t.Fatal(err)
				}
				base := takeBaseline(node, class)

				victim, err := node.NewProcessWith(p, ProcLimits{Class: class})
				if err != nil {
					t.Fatal(err)
				}
				for tag := uint32(1); tag <= 2; tag++ {
					buf, _ := victim.Malloc(2 * mem.PageSize)
					if err := victim.Export(p, tag, buf, 2*mem.PageSize, nil, false); err != nil {
						t.Fatal(err)
					}
				}
				user, _ := victim.Malloc(mem.PageSize)
				if _, err := victim.PostRedirect(p, 1, user, mem.PageSize); err != nil {
					t.Fatal(err)
				}
				dest, _, err := victim.Import(p, 1, 9)
				if err != nil {
					t.Fatal(err)
				}
				src, _ := victim.Malloc(size)
				msg := bytes.Repeat([]byte{0x5A}, size)
				if err := victim.Write(src, msg); err != nil {
					t.Fatal(err)
				}
				// Three chunks: the TLB holds the source pages, and with an
				// ack every fourth packet the class's window is still open
				// when the synchronous send returns.
				if err := victim.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
					t.Fatal(err)
				}
				loaded := takeBaseline(node, class)
				if loaded.sramUsed <= base.sramUsed || loaded.pinnedFrames < 2*2+1+3+1 ||
					loaded.incomingEntries != base.incomingEntries+4 || loaded.unacked == 0 || victim.PinnedFrames() == 0 {
					t.Fatalf("process not loaded as intended: %+v over %+v, %d pins", loaded, base, victim.PinnedFrames())
				}

				tc.teardown(p, c, victim)
				p.Sleep(5 * sim.Millisecond) // a closed process's last packets are acknowledged

				if got := takeBaseline(node, class); got != base {
					t.Errorf("after teardown %+v, want the baseline %+v", got, base)
				}
				if n := victim.PinnedFrames(); n != 0 {
					t.Errorf("%d frames still charged to the process", n)
				}
				for pg, e := range victim.lcpState.outPT.entries {
					if e.valid {
						t.Fatalf("outgoing page-table entry %d still valid", pg)
					}
				}
				if _, alive := node.Process(victim.Pid); alive {
					t.Error("process still registered with its node")
				}
			})
		})
	}
}
