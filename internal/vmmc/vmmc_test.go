package vmmc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// testCluster boots an n-node cluster and runs fn as a workload on it.
func testCluster(t *testing.T, n int, fn func(p *simProc, c *Cluster)) *Cluster {
	t.Helper()
	// Every fire-and-forget test doubles as a buffer-ownership check: a
	// packet buffer read after it went back to the free list reads 0xDB,
	// and one written after it was injected fails the fabric's CRC oracle.
	return startCluster(t, Options{Nodes: n}, true, fn)
}

// startCluster is testCluster with the fabric's two buffer oracles
// optional: tests that count allocations or time the payload path run
// without the poison fill and the eager CRC.
func startCluster(t testing.TB, opts Options, oracles bool, fn func(p *simProc, c *Cluster)) *Cluster {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := NewCluster(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if oracles {
		c.Net.PoisonReleased()
		c.Net.VerifyIntact()
	}
	c.Go("workload", func(p *simProc) { fn(p, c) })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterBoots(t *testing.T) {
	c := testCluster(t, 4, func(p *simProc, c *Cluster) {
		for _, n := range c.Nodes {
			if n.LCP == nil {
				t.Errorf("node %d has no LCP after boot", n.ID)
			}
		}
	})
	if counter(t, c.Eng, "net/packets_dropped") == 0 {
		t.Log("note: mapping probes all landed") // mapping normally drops dead probes
	}
}

// TestSingleSwitchBootRoutes pins the tables boot hands the VMMC LCPs on
// the paper's one-switch cluster: node j hangs off port j, so every route
// i->j, loopback included, is the single byte j. Any mapper that meets
// this leaves every post-boot packet on the same path.
func TestSingleSwitchBootRoutes(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		c := testCluster(t, nodes, func(*simProc, *Cluster) {})
		for _, src := range c.Nodes {
			if len(src.routes) != nodes {
				t.Errorf("%d nodes: node %d has %d routes, want %d", nodes, src.ID, len(src.routes), nodes)
			}
			for j := 0; j < nodes; j++ {
				if got := src.routes[j]; !bytes.Equal(got, []byte{byte(j)}) {
					t.Errorf("%d nodes: route %d->%d = %v, want [%d]", nodes, src.ID, j, got, j)
				}
			}
		}
	}
}

func TestShortSendEndToEnd(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, err := c.Nodes[1].NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		send, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}

		buf, err := recv.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Export(p, 7, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}

		dest, n, err := send.Import(p, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if n != mem.PageSize {
			t.Fatalf("imported length = %d", n)
		}

		src, _ := send.Malloc(mem.PageSize)
		msg := []byte("zero copy hello")
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, len(msg), SendOptions{}); err != nil {
			t.Fatal(err)
		}

		// Wait for delivery, then check the receiver's memory directly —
		// no receive call ever happens.
		recv.SpinByte(p, buf, 'z')
		got, err := recv.Read(buf, len(msg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("receiver memory = %q, want %q", got, msg)
		}
	})
}

func TestLongSendEndToEnd(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)

		const size = 3*mem.PageSize + 500
		buf, _ := recv.Malloc(4 * mem.PageSize)
		if err := recv.Export(p, 1, buf, 4*mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}

		src, _ := send.Malloc(4 * mem.PageSize)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*13 + 7)
		}
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinUntil(p, func() bool {
			got, err := recv.Read(buf+mem.VirtAddr(size-1), 1)
			return err == nil && got[0] == msg[size-1]
		})
		got, _ := recv.Read(buf, size)
		if !bytes.Equal(got, msg) {
			for i := range got {
				if got[i] != msg[i] {
					t.Fatalf("first mismatch at byte %d of %d", i, size)
				}
			}
		}
	})
}

func TestLongSendUnalignedScatter(t *testing.T) {
	// Send from an unaligned source offset to an unaligned destination
	// offset so every chunk crosses a destination page boundary and takes
	// the two-piece scatter path (§4.5).
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)

		buf, _ := recv.Malloc(8 * mem.PageSize)
		if err := recv.Export(p, 1, buf, 8*mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}

		const size = 5*mem.PageSize + 37
		src, _ := send.Malloc(8 * mem.PageSize)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i ^ (i >> 8))
		}
		srcOff, dstOff := mem.VirtAddr(123), ProxyAddr(2041)
		if err := send.Write(src+srcOff, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src+srcOff, dest+dstOff, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinUntil(p, func() bool {
			got, err := recv.Read(buf+mem.VirtAddr(dstOff)+mem.VirtAddr(size-1), 1)
			return err == nil && got[0] == msg[size-1]
		})
		got, _ := recv.Read(buf+mem.VirtAddr(dstOff), size)
		if !bytes.Equal(got, msg) {
			t.Error("unaligned scatter corrupted data")
		}
		// Neighbouring bytes must be untouched.
		before, _ := recv.Read(buf+mem.VirtAddr(dstOff)-1, 1)
		after, _ := recv.Read(buf+mem.VirtAddr(dstOff)+mem.VirtAddr(size), 1)
		if before[0] != 0 || after[0] != 0 {
			t.Error("transfer wrote outside the destination range")
		}
	})
}

// A stencil code's neighbour exchange: four nodes on a ring trade a value
// with both neighbours every step, concurrently, and learn of arrival only
// by SpinByte on a step flag in their own exported page. A neighbour can
// run one step ahead, so steps alternate between two pairs of slots.
func TestRingNeighbourExchange(t *testing.T) {
	const nodes, steps = 4, 20
	testCluster(t, nodes, func(p *simProc, c *Cluster) {
		procs := make([]*Process, nodes)
		pages := make([]mem.VirtAddr, nodes)
		for i := range procs {
			procs[i], _ = c.Nodes[i].NewProcess(p)
			pages[i], _ = procs[i].Malloc(2 * mem.PageSize) // exported halo page, then staging
			if err := procs[i].Export(p, 7, pages[i], mem.PageSize, nil, false); err != nil {
				t.Error(err)
				return
			}
		}
		for i, proc := range procs {
			l, r := (i+nodes-1)%nodes, (i+1)%nodes
			toL, _, errL := proc.Import(p, l, 7)
			toR, _, errR := proc.Import(p, r, 7)
			if errL != nil || errR != nil {
				t.Error(errL, errR)
				return
			}
			halo, src := pages[i], pages[i]+mem.PageSize
			c.Eng.Go(fmt.Sprintf("worker%d", i), func(wp *simProc) {
				for s := 1; s <= steps; s++ {
					// Slot base+0 is written by the left neighbour, base+16
					// by the right one: [sender node, step].
					base := 32 * (s % 2)
					if err := proc.Write(src, []byte{byte(i), byte(s)}); err != nil {
						t.Error(err)
						return
					}
					if err := proc.SendMsgSync(wp, src, toL+ProxyAddr(base+16), 2, SendOptions{}); err != nil {
						t.Error(err)
						return
					}
					if err := proc.SendMsgSync(wp, src, toR+ProxyAddr(base), 2, SendOptions{}); err != nil {
						t.Error(err)
						return
					}
					proc.SpinByte(wp, halo+mem.VirtAddr(base+1), byte(s))
					proc.SpinByte(wp, halo+mem.VirtAddr(base+17), byte(s))
					fromL, _ := proc.Read(halo+mem.VirtAddr(base), 2)
					fromR, _ := proc.Read(halo+mem.VirtAddr(base+16), 2)
					if !bytes.Equal(fromL, []byte{byte(l), byte(s)}) || !bytes.Equal(fromR, []byte{byte(r), byte(s)}) {
						t.Errorf("node %d step %d: halo %v %v, want [%d %d] [%d %d]", i, s, fromL, fromR, l, s, r, s)
						return
					}
				}
			})
		}
	})
}
