package vmmc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Property: for arbitrary (offset, length) pairs within the window, every
// transfer delivers exactly its bytes to exactly its destination — across
// short/long protocol selection, chunking, and two-piece scatter.
func TestTransferIntegrityProperty(t *testing.T) {
	const window = 16 * mem.PageSize
	type xfer struct {
		srcOff, dstOff, n int
		fill              byte
	}
	// Generate the transfer schedule up front, apply it inside one
	// simulation, then verify a mirrored model of the window.
	gen := func(seed int64) []xfer {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]xfer, 12)
		for i := range xs {
			n := 1 + rng.Intn(3*mem.PageSize)
			xs[i] = xfer{
				srcOff: rng.Intn(window - n),
				dstOff: rng.Intn(window - n),
				n:      n,
				fill:   byte(rng.Intn(255) + 1),
			}
		}
		return xs
	}

	f := func(seed int64) bool {
		xs := gen(seed)
		ok := true
		testCluster(t, 2, func(p *simProc, c *Cluster) {
			recv, err := c.Nodes[1].NewProcess(p)
			if err != nil {
				t.Fatal(err)
			}
			send, err := c.Nodes[0].NewProcess(p)
			if err != nil {
				t.Fatal(err)
			}
			buf, _ := recv.Malloc(window)
			if err := recv.Export(p, 1, buf, window, nil, false); err != nil {
				t.Fatal(err)
			}
			dest, _, err := send.Import(p, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			src, _ := send.Malloc(window)

			model := make([]byte, window)
			for _, x := range xs {
				data := bytes.Repeat([]byte{x.fill}, x.n)
				if err := send.Write(src+mem.VirtAddr(x.srcOff), data); err != nil {
					t.Fatal(err)
				}
				if err := send.SendMsgSync(p, src+mem.VirtAddr(x.srcOff), dest+ProxyAddr(x.dstOff), x.n, SendOptions{}); err != nil {
					t.Fatal(err)
				}
				copy(model[x.dstOff:x.dstOff+x.n], data)
			}
			// Drain with a fence transfer to a fixed spot.
			fence, _ := send.Malloc(mem.PageSize)
			if err := send.Write(fence, []byte{0xFD}); err != nil {
				t.Fatal(err)
			}
			if err := send.SendMsgSync(p, fence, dest+ProxyAddr(window-1), 1, SendOptions{}); err != nil {
				t.Fatal(err)
			}
			model[window-1] = 0xFD
			recv.SpinByte(p, buf+window-1, 0xFD)

			got, err := recv.Read(buf, window)
			if err != nil {
				t.Fatal(err)
			}
			ok = bytes.Equal(got, model)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: messages between one sender/receiver pair are delivered in
// posting order regardless of size mix (short and long interleaved).
func TestInOrderDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const count = 16
		sizes := make([]int, count)
		for i := range sizes {
			if rng.Intn(2) == 0 {
				sizes[i] = 1 + rng.Intn(128) // short
			} else {
				sizes[i] = 129 + rng.Intn(2*mem.PageSize) // long
			}
		}
		ok := true
		testCluster(t, 2, func(p *simProc, c *Cluster) {
			recv, _ := c.Nodes[1].NewProcess(p)
			send, _ := c.Nodes[0].NewProcess(p)
			// Each message writes its index into a dedicated order cell;
			// in-order delivery means the cells fill monotonically.
			const cellBytes = 3 * mem.PageSize
			buf, _ := recv.Malloc((count + 1) * cellBytes)
			if err := recv.Export(p, 1, buf, (count+1)*cellBytes, nil, false); err != nil {
				t.Fatal(err)
			}
			dest, _, err := send.Import(p, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			// One source region per message: the asynchronous-send contract
			// forbids reusing a send buffer before its completion.
			src, _ := send.Malloc((count + 1) * cellBytes)
			for i, n := range sizes {
				msgSrc := src + mem.VirtAddr(i*cellBytes)
				payload := bytes.Repeat([]byte{byte(i + 1)}, n)
				if err := send.Write(msgSrc, payload); err != nil {
					t.Fatal(err)
				}
				if _, err := send.SendMsg(p, msgSrc, dest+ProxyAddr(i*cellBytes), n, SendOptions{}); err != nil {
					t.Fatal(err)
				}
				// The posting order is the delivery order; a later post
				// must not overtake, so by the time cell i has data,
				// cells < i must be complete. Spot-check while running.
				if i > 2 && rng.Intn(3) == 0 {
					j := rng.Intn(i - 1)
					got, _ := recv.Read(buf+mem.VirtAddr(i*cellBytes), 1)
					if got[0] != 0 {
						prev, _ := recv.Read(buf+mem.VirtAddr(j*cellBytes), 1)
						if prev[0] == 0 {
							ok = false // cell i arrived before cell j < i
						}
					}
				}
			}
			// Fence.
			fenceSrc := src + mem.VirtAddr(count*cellBytes)
			if err := send.Write(fenceSrc, []byte{0xEE}); err != nil {
				t.Fatal(err)
			}
			if err := send.SendMsgSync(p, fenceSrc, dest+ProxyAddr(count*cellBytes), 1, SendOptions{}); err != nil {
				t.Fatal(err)
			}
			recv.SpinByte(p, buf+mem.VirtAddr(count*cellBytes), 0xEE)
			for i, n := range sizes {
				got, _ := recv.Read(buf+mem.VirtAddr(i*cellBytes), n)
				for _, bb := range got {
					if bb != byte(i+1) {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: sender-side validation accepts exactly the transfers that fit
// the import and rejects the rest, for arbitrary offsets and lengths.
func TestSendValidationProperty(t *testing.T) {
	const exported = 3*mem.PageSize + 777
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := NewCluster(eng, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var outPT *OutgoingTable
	c.Go("setup", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(4 * mem.PageSize)
		if err := recv.Export(p, 1, buf, exported, nil, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := send.Import(p, 1, 1); err != nil {
			t.Fatal(err)
		}
		outPT = send.lcpState.outPT
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	f := func(off uint16, lenSeed uint16) bool {
		dstOff := int(off) % (exported + mem.PageSize)
		n := int(lenSeed)%(exported+mem.PageSize) + 1
		_, err := outPT.checkTransfer(ProxyAddr(dstOff), n)
		fits := dstOff+n <= exported
		return (err == nil) == fits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestLargeClusterMultiSwitch(t *testing.T) {
	// 10 nodes forces the two-switch chain topology; mapping and
	// cross-switch transfers must work.
	testCluster(t, 10, func(p *simProc, c *Cluster) {
		if len(c.Net.Switches()) < 2 {
			t.Fatalf("expected multi-switch topology, got %d switches", len(c.Net.Switches()))
		}
		// Node 0 (switch 0) sends to node 9 (switch 1).
		recv, err := c.Nodes[9].NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		send, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(mem.PageSize)
		if err := send.Write(src, []byte("across switches")); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, 15, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinByte(p, buf, 'a')
		got, _ := recv.Read(buf, 15)
		if string(got) != "across switches" {
			t.Errorf("cross-switch data = %q", got)
		}
	})
}

func TestAllPairsTraffic(t *testing.T) {
	// Every node sends to every other node simultaneously — the paper's
	// 4-node testbed under all-pairs load; all 12 flows must complete
	// intact.
	const n = 4
	const msgLen = 2*mem.PageSize + 33
	testCluster(t, n, func(p *simProc, c *Cluster) {
		procs := make([]*Process, n)
		for i := range procs {
			var err error
			procs[i], err = c.Nodes[i].NewProcess(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		bufs := make([][]mem.VirtAddr, n)
		for i := range procs {
			bufs[i] = make([]mem.VirtAddr, n)
			for j := range procs {
				if i == j {
					continue
				}
				buf, _ := procs[i].Malloc(3 * mem.PageSize)
				bufs[i][j] = buf
				tag := uint32(i*10 + j)
				if err := procs[i].Export(p, tag, buf, 3*mem.PageSize, nil, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		done := 0
		for i := range procs {
			i := i
			c.Eng.Go("flow", func(sp *simProc) {
				defer func() { done++ }()
				for j := range procs {
					if i == j {
						continue
					}
					dest, _, err := procs[i].Import(sp, j, uint32(j*10+i))
					if err != nil {
						t.Error(err)
						return
					}
					src, _ := procs[i].Malloc(3 * mem.PageSize)
					payload := bytes.Repeat([]byte{byte(16*i + j)}, msgLen)
					if err := procs[i].Write(src, payload); err != nil {
						t.Error(err)
						return
					}
					if err := procs[i].SendMsgSync(sp, src, dest, msgLen, SendOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		for done < n {
			p.Sleep(sim.Millisecond)
		}
		p.Sleep(20 * sim.Millisecond) // drain
		for i := range procs {
			for j := range procs {
				if i == j {
					continue
				}
				got, _ := procs[j].Read(bufs[j][i], msgLen)
				for k, bb := range got {
					if bb != byte(16*i+j) {
						t.Fatalf("flow %d->%d corrupted at byte %d", i, j, k)
					}
				}
			}
		}
	})
}
