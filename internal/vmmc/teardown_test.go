package vmmc

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// nodeBaseline is what a process teardown must give back on its node: the
// SRAM carve, every page lock, the incoming page-table entries of its
// exports and its traffic class's retransmit buffers.
type nodeBaseline struct {
	sramUsed, pinnedFrames, incomingEntries, unacked int
}

func takeBaseline(n *Node, class int) nodeBaseline {
	b := nodeBaseline{
		sramUsed: n.Board.SRAM.Used(),
		unacked:  n.Board.Reliable().Unacked(class),
	}
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

// A chunk's host DMA is a continuation on the engine, not a process: nobody
// can kill it, so when its owner dies mid-transfer — alone, or with the
// whole node — the transfer runs out its time and then everything it held
// must come back: the engine and the PCI bus under it, the staging buffer
// (to the free list after a kill; with the dead LCP's SRAM after a crash),
// and the chunk it fetched must go nowhere.
func TestTeardownDuringChunkDMA(t *testing.T) {
	const (
		class = 3
		size  = 8 * mem.PageSize
	)
	for _, tc := range []struct {
		name     string
		teardown func(c *Cluster, victim *Process)
		crash    bool
	}{
		{"kill", func(c *Cluster, victim *Process) { c.Nodes[0].KillProcess(victim.Pid) }, false},
		{"crash", func(c *Cluster, victim *Process) { c.CrashNode(0) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reliableCluster(t, func(p *simProc, c *Cluster) {
				node := c.Nodes[0]
				peer, _ := c.Nodes[1].NewProcess(p)
				peerBuf, _ := peer.Malloc(size)
				if err := peer.Export(p, 9, peerBuf, size, nil, false); err != nil {
					t.Fatal(err)
				}
				base := takeBaseline(node, class)

				// stream sends size bytes of fill from a fresh process in a
				// class of its own (a killed class's id is never reused); with
				// wait unset it returns with the send posted.
				stream := func(class int, fill byte, wait bool) *Process {
					proc, err := node.NewProcessWith(p, ProcLimits{Class: class})
					if err != nil {
						t.Fatal(err)
					}
					dest, _, err := proc.Import(p, 1, 9)
					if err != nil {
						t.Fatal(err)
					}
					src, _ := proc.Malloc(size)
					if err := proc.Write(src, bytes.Repeat([]byte{fill}, size)); err != nil {
						t.Fatal(err)
					}
					if wait {
						if err := proc.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
							t.Fatal(err)
						}
					} else if _, err := proc.SendMsg(p, src, dest, size, SendOptions{}); err != nil {
						t.Fatal(err)
					}
					return proc
				}

				victim := stream(class, 0x11, false)
				lcp := node.LCP
				// Into the second chunk's transfer, the first chunk injected
				// and the control program idle until the DMA completes.
				inFlight := func() bool {
					j := lcp.job
					return j != nil && j.dmaBusy && node.Board.HostDMA.Busy() && j.sentDMA > 0 && j.injOff == j.sentDMA
				}
				for !inFlight() {
					p.Sleep(sim.Micros(1))
				}
				j := lcp.job
				sent := nodeCounter(t, node, "lcp_packets_out")
				hostDMAs := fmt.Sprintf("dma:lanai%d:host/transfers", node.Board.NIC.ID)
				transfers := counter(t, c.Eng, hostDMAs)

				tc.teardown(c, victim)
				if !node.Board.HostDMA.Busy() {
					t.Error("teardown cut a host DMA short: the engine is free before the transfer's time is up")
				}
				p.Sleep(sim.Micros(100)) // a 4 KB transfer is about 50 us
				if node.Board.HostDMA.Busy() {
					t.Error("host-DMA engine still held after the transfer's end")
				}
				if n := counter(t, c.Eng, hostDMAs); n != transfers+1 {
					t.Errorf("%d host DMAs completed after the teardown, want the one in flight", n-transfers)
				}
				if j.dmaBusy || len(j.staged) > 0 && !tc.crash {
					t.Errorf("dead job: dmaBusy=%v, %d chunks staged", j.dmaBusy, len(j.staged))
				}
				if got := nodeCounter(t, node, "lcp_packets_out"); got != sent {
					t.Errorf("%d packets injected for the dead job", got-sent)
				}
				if tc.crash {
					if lcp.stagingFree != nil || lcp.job != nil {
						t.Errorf("crashed LCP kept %d staging buffers and a job (%v)", len(lcp.stagingFree), lcp.job != nil)
					}
					if err := c.RestartNode(0); err != nil {
						t.Fatal(err)
					}
				}
				if l := node.LCP; len(l.stagingFree) != len(l.stagingOff) || l.job != nil {
					t.Errorf("%d of %d staging buffers free, job in flight %v", len(l.stagingFree), len(l.stagingOff), l.job != nil)
				}

				// The engine, the bus and both staging buffers are usable: a
				// whole message goes through them.
				next := stream(class+1, 0x22, true)
				peer.SpinByte(p, peerBuf+size-1, 0x22)
				if got, _ := peer.Read(peerBuf, size); !bytes.Equal(got, bytes.Repeat([]byte{0x22}, size)) {
					t.Error("the message sent after the teardown did not arrive whole")
				}
				if err := next.Close(p); err != nil {
					t.Fatal(err)
				}
				p.Sleep(5 * sim.Millisecond)
				if got := takeBaseline(node, class); got != base {
					t.Errorf("after teardown %+v, want the baseline %+v", got, base)
				}
				if n := victim.PinnedFrames(); n != 0 {
					t.Errorf("%d frames still charged to the dead process", n)
				}
			})
		})
	}
}

// The receive engine is a chain of continuations, not a process: a crash
// cannot cut the packet it is draining short, so the drain runs out its
// time, and then the packet must go nowhere — not to the dead control
// program, and not, when the node is back before the drain ends, to the
// new one. An engine that was idle leaves no wait behind to take a packet
// meant for its successor. Either way the restarted node's engine takes
// the next packet on its first transmission, and the node ends where it
// started.
func TestTeardownDuringReceiveDMA(t *testing.T) {
	const size = mem.PageSize
	for _, tc := range []struct {
		name                 string
		midDrain, restartNow bool
	}{
		{"crash mid-drain", true, false},
		{"crash and restart mid-drain", true, true},
		{"crash while idle", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reliableCluster(t, func(p *simProc, c *Cluster) {
				node := c.Nodes[1]
				base := takeBaseline(node, 0)
				send, _ := c.Nodes[0].NewProcess(p)
				src, _ := send.Malloc(size)
				// deliver writes a page of fill into a fresh export on the
				// receiver, as one packet; with wait unset it returns with the
				// send posted.
				deliver := func(tag uint32, fill byte, wait bool) (*Process, mem.VirtAddr) {
					recv, err := node.NewProcess(p)
					if err != nil {
						t.Fatal(err)
					}
					buf, _ := recv.Malloc(size)
					if err := recv.Export(p, tag, buf, size, nil, false); err != nil {
						t.Fatal(err)
					}
					dest, _, err := send.Import(p, node.ID, tag)
					if err != nil {
						t.Fatal(err)
					}
					if err := send.Write(src, bytes.Repeat([]byte{fill}, size)); err != nil {
						t.Fatal(err)
					}
					if _, err := send.SendMsg(p, src, dest, size, SendOptions{}); err != nil {
						t.Fatal(err)
					}
					if wait {
						recv.SpinByte(p, buf+size-1, fill)
					}
					return recv, buf
				}

				if tc.midDrain {
					deliver(9, 0x11, false)
					for !node.Board.NetRecv.Busy() {
						p.Sleep(sim.Micros(1))
					}
				}
				old := node.LCP
				drains := fmt.Sprintf("dma:lanai%d:netrecv/transfers", node.Board.NIC.ID)
				transfers := counter(t, c.Eng, drains)
				// The node's counters outlive its LCP: the restarted control
				// program counts on from where the dead one stopped.
				in := nodeCounter(t, node, "lcp_packets_in")

				c.CrashNode(node.ID)
				if tc.restartNow {
					if err := c.RestartNode(node.ID); err != nil {
						t.Fatal(err)
					}
				}
				if tc.midDrain && !node.Board.NetRecv.Busy() {
					t.Error("the crash cut a receive DMA short: the engine is free before the transfer's time is up")
				}
				p.Sleep(sim.Micros(50)) // a 4 KB drain is about 26 us
				if node.Board.NetRecv.Busy() {
					t.Error("net-receive engine still held after the transfer's end")
				}
				if n := counter(t, c.Eng, drains); tc.midDrain && n != transfers+1 {
					t.Errorf("%d receive DMAs completed after the crash, want the one in flight", n-transfers)
				}
				if got := nodeCounter(t, node, "lcp_packets_in"); len(old.rxq) != 0 || got != in {
					t.Errorf("the dead engine's packet reached a control program: %d queued, %d counted", len(old.rxq), got-in)
				}
				if !tc.restartNow {
					if err := c.RestartNode(node.ID); err != nil {
						t.Fatal(err)
					}
				} else if l := node.LCP; len(l.rxq) != 0 {
					t.Errorf("the restarted LCP was handed the dead engine's packet")
				}

				transfers = counter(t, c.Eng, drains)
				retx := boardCounter(t, c.Nodes[0], "rl_retransmits")
				next, buf := deliver(10, 0x22, true)
				if got, _ := next.Read(buf, size); !bytes.Equal(got, bytes.Repeat([]byte{0x22}, size)) {
					t.Error("the packet after the restart did not arrive whole")
				}
				n := counter(t, c.Eng, drains)
				if got := boardCounter(t, c.Nodes[0], "rl_retransmits") - retx; n != transfers+1 || got != 0 {
					t.Errorf("the packet after the restart took %d drains and %d retransmissions, want 1 and 0", n-transfers, got)
				}
				if n := nodeCounter(t, node, "lcp_packets_in") - in; n != 1 {
					t.Errorf("the restarted LCP took %d packets, want the one sent to it", n)
				}
				for _, proc := range []*Process{send, next} { // the importer's release reaches the exporter's daemon over Ethernet
					if err := proc.Close(p); err != nil {
						t.Error(err)
						return
					}
					p.Sleep(5 * sim.Millisecond)
				}
				if got := takeBaseline(node, 0); got != base {
					t.Errorf("after the restart %+v, want the baseline %+v", got, base)
				}
			})
		})
	}
}

// freeFrames counts the node's frame pool, which mem keeps unexported.
func freeFrames(n *Node) int {
	return reflect.ValueOf(n.Phys).Elem().FieldByName("freeFrames").Len()
}

// lifetime runs one process on node: a written page when it has one,
// then Close, or KillProcess when kill is set. The workloads below report
// its error and return, rather than calling t.Fatal off the test
// goroutine, so a node that runs out of frames fails instead of hanging.
func lifetime(p *simProc, node *Node, page, kill bool) error {
	proc, err := node.NewProcess(p)
	if err != nil {
		return err
	}
	if page {
		buf, err := proc.Malloc(mem.PageSize)
		if err == nil {
			err = proc.Write(buf, []byte("dead"))
		}
		if err != nil {
			return err
		}
	}
	if kill {
		node.KillProcess(proc.Pid)
		return nil
	}
	return proc.Close(p)
}

// A dead process's frames go back to its node's pool: 10 000 lifetimes
// fit on one default node of 4 096 frames.
func TestProcessLifetimesReclaimFrames(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		for i := 0; i < 10000; i++ {
			if err := lifetime(p, c.Nodes[0], false, false); err != nil {
				t.Errorf("lifetime %d: %v", i, err)
				return
			}
		}
	})
}

// 50 cycles of a process with a written page, ended by Close or by
// KillProcess, leave the node's frame pool as they found it.
func TestTeardownCyclesLeaveFramePool(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		node := c.Nodes[0]
		for _, kill := range []bool{false, true} {
			before := freeFrames(node)
			for i := 0; i < 50; i++ {
				if err := lifetime(p, node, true, kill); err != nil {
					t.Errorf("kill=%v cycle %d: %v", kill, i, err)
					return
				}
			}
			if after := freeFrames(node); after != before {
				t.Errorf("50 cycles, kill=%v: %d free frames, want %d", kill, after, before)
			}
		}
	})
}

// A reclaimed frame reads as zeros: a process that takes every frame its
// node had free before a dead one wrote its pages, the dead one's
// included, finds none of its bytes, however the dead one went.
func TestReclaimedFramesReadZero(t *testing.T) {
	for _, end := range []string{"close", "kill"} {
		t.Run(end, func(t *testing.T) {
			startCluster(t, Options{Nodes: 2, MemBytes: 1 << 20}, true, func(p *simProc, c *Cluster) {
				node := c.Nodes[0]
				free := freeFrames(node)
				dead, err := node.NewProcess(p)
				if err != nil {
					t.Error(err)
					return
				}
				const size = 8 * mem.PageSize
				buf, err := dead.Malloc(size)
				if err == nil {
					err = dead.Write(buf, bytes.Repeat([]byte{0xAB}, size))
				}
				if err == nil && end == "close" {
					err = dead.Close(p)
				} else if err == nil {
					node.KillProcess(dead.Pid)
				}
				next, err2 := node.NewProcess(p)
				if err == nil {
					err = err2
				}
				if err != nil {
					t.Error(err)
					return
				}
				n := (free - 1) * mem.PageSize // all but next's status page
				all, err := next.Malloc(n)
				if err != nil {
					t.Errorf("the dead process's frames did not come back: %v", err)
					return
				}
				got, err := next.Read(all, n)
				if err != nil {
					t.Error(err)
					return
				}
				if i := bytes.IndexByte(got, 0xAB); i >= 0 {
					t.Errorf("the new process reads the dead one's byte at offset %d", i)
				}
			})
		})
	}
}

// A process killed while the LANai deposits into its export gets none of
// that deposit: its frames went back to the pool zeroed, and the DMA,
// whose bytes land when its transfer time is up, drops them. The next
// process to take every free frame reads zeros.
func TestKillDuringDepositLeavesFramesZero(t *testing.T) {
	startCluster(t, Options{Nodes: 2, MemBytes: 1 << 20}, true, func(p *simProc, c *Cluster) {
		node := c.Nodes[1]
		const size = mem.PageSize
		send, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(size)
		recv, err := node.NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		dest, _, err := send.Import(p, node.ID, 1)
		if err == nil {
			err = send.Write(src, bytes.Repeat([]byte{0xAB}, size))
		}
		if err == nil {
			_, err = send.SendMsg(p, src, dest, size, SendOptions{})
		}
		if err != nil {
			t.Error(err)
			return
		}
		for !node.Board.HostDMA.Busy() {
			p.Sleep(sim.Micros(1))
		}
		node.KillProcess(recv.Pid)
		p.Sleep(sim.Micros(100)) // a 4 KB deposit is about 31 us
		if n := boardCounter(t, node, "dma_writes_dropped"); n != 1 {
			t.Errorf("%d DMA writes dropped, want the deposit in flight", n)
		}
		free := freeFrames(node)
		next, err := node.NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		n := (free - 1) * mem.PageSize // all but next's status page
		all, err := next.Malloc(n)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := next.Read(all, n)
		if err != nil {
			t.Error(err)
			return
		}
		if i := bytes.IndexByte(got, 0xAB); i >= 0 {
			t.Errorf("the new process reads the deposit into the dead one's export at offset %d", i)
		}
	})
}

// A closed handle is dead, like a killed one: asking after a send returns
// ErrNodeDown instead of reading a status page that went with its frames.
func TestClosedHandleReportsNodeDown(t *testing.T) {
	for _, end := range []string{"close", "kill"} {
		t.Run(end, func(t *testing.T) {
			testCluster(t, 2, func(p *simProc, c *Cluster) {
				node := c.Nodes[0]
				proc, err := node.NewProcess(p)
				if err != nil {
					t.Error(err)
					return
				}
				if end == "close" {
					err = proc.Close(p)
				} else {
					node.KillProcess(proc.Pid)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !proc.Dead() {
					t.Error("the handle is not dead")
				}
				if done, err := proc.SendDone(1); !done || err != ErrNodeDown {
					t.Errorf("SendDone = %v, %v; want true, ErrNodeDown", done, err)
				}
				if err := proc.WaitSend(p, 1); err != ErrNodeDown {
					t.Errorf("WaitSend = %v, want ErrNodeDown", err)
				}
				if err := proc.Close(p); err != nil {
					t.Errorf("a second Close: %v", err)
				}
			})
		})
	}
}
