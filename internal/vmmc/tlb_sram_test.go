package vmmc

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestTLBLookupInsert(t *testing.T) {
	tlb := &TLB{sets: make([][2]tlbEntry, 4), lru: make([]uint8, 4)}
	if _, hit := tlb.Lookup(12); hit {
		t.Error("hit on empty TLB")
	}
	tlb.Insert(12, 100)
	if f, hit := tlb.Lookup(12); !hit || f != 100 {
		t.Errorf("Lookup(12) = %d,%v", f, hit)
	}
}

func TestTLBTwoWaySetAssociativity(t *testing.T) {
	tlb := &TLB{sets: make([][2]tlbEntry, 4), lru: make([]uint8, 4)}
	// vpages 0, 4, 8 all map to set 0; the third insert evicts.
	tlb.Insert(0, 10)
	tlb.Insert(4, 14)
	if _, _, ev := tlb.Insert(8, 18); !ev {
		t.Error("third insert into a 2-way set did not evict")
	}
	// Both newer entries present.
	if _, hit := tlb.Lookup(8); !hit {
		t.Error("newest entry missing")
	}
	live := 0
	for _, vp := range []uint64{0, 4} {
		if _, hit := tlb.Lookup(vp); hit {
			live++
		}
	}
	if live != 1 {
		t.Errorf("%d of the two older entries live, want exactly 1", live)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := &TLB{sets: make([][2]tlbEntry, 4), lru: make([]uint8, 4)}
	tlb.Insert(0, 10)
	tlb.Insert(4, 14)
	tlb.Lookup(0) // 0 is now MRU; 4 is the victim
	evVP, evFrame, ev := tlb.Insert(8, 18)
	if !ev || evVP != 4 || evFrame != 14 {
		t.Errorf("evicted (%d,%d,%v), want (4,14,true)", evVP, evFrame, ev)
	}
}

func TestTLBInsertRefreshesExisting(t *testing.T) {
	tlb := &TLB{sets: make([][2]tlbEntry, 4), lru: make([]uint8, 4)}
	tlb.Insert(0, 10)
	if _, _, ev := tlb.Insert(0, 20); ev {
		t.Error("refreshing insert evicted")
	}
	if f, _ := tlb.Lookup(0); f != 20 {
		t.Errorf("frame = %d after refresh, want 20", f)
	}
}

func TestTLBInvalidateAll(t *testing.T) {
	tlb := &TLB{sets: make([][2]tlbEntry, 8), lru: make([]uint8, 8)}
	for i := uint64(0); i < 10; i++ {
		tlb.Insert(i, int(i)+100)
	}
	frames := tlb.InvalidateAll()
	if len(frames) != 10 {
		t.Errorf("invalidated %d entries, want 10", len(frames))
	}
	for i := uint64(0); i < 10; i++ {
		if _, hit := tlb.Lookup(i); hit {
			t.Fatalf("entry %d survived InvalidateAll", i)
		}
	}
}

func TestTLBMissTriggersRefillInterrupt(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 8 * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(size)

		n := c.Nodes[0]
		if got := boardCounter(t, n, "interrupts"); got != 0 {
			t.Fatalf("interrupts before first send = %d", got)
		}
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		refills, locked := nodeCounter(t, n, "tlb_refills"), nodeCounter(t, n, "pages_locked")
		if refills != 1 {
			t.Errorf("refill interrupts = %d, want 1 (batch of 32 covers 8 pages)", refills)
		}
		if locked < 8 {
			t.Errorf("pages locked = %d, want >= 8", locked)
		}
		// Second send of the same region: warm TLB, no new interrupts.
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		if refills2 := nodeCounter(t, n, "tlb_refills"); refills2 != refills {
			t.Errorf("warm-TLB send took %d extra refills", refills2-refills)
		}
		if nodeCounter(t, n, "tlb_hits") == 0 {
			t.Error("no TLB hits on warm send")
		}
	})
}

func TestTLBRefillBatchCoversThirtyTwoPages(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const pages = 64
		const size = pages * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(size)
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		if refills := nodeCounter(t, c.Nodes[0], "tlb_refills"); refills != pages/TLBRefillBatch {
			t.Errorf("refills = %d for %d pages, want %d (32 per interrupt)",
				refills, pages, pages/TLBRefillBatch)
		}
	})
}

func TestTLBPinsAndUnpinsOnEviction(t *testing.T) {
	// Stream enough distinct pages through one set-conflicting region to
	// force evictions; pin counts must return to zero... for evicted
	// pages while cached ones stay pinned.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(mem.PageSize)
		if err := send.SendMsgSync(p, src, dest, mem.PageSize, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		pa, _ := send.AS.Translate(src)
		if !send.Node.Phys.Pinned(pa.Frame()) {
			t.Error("send page not locked while its translation is cached")
		}
		// Teardown unpins everything.
		if err := send.Close(p); err != nil {
			t.Fatal(err)
		}
		if send.Node.Phys.Pinned(pa.Frame()) {
			t.Error("send page still pinned after process close")
		}
	})
}

func TestSRAMProcessLimit(t *testing.T) {
	// Each process costs SRAM (send queue + outgoing PT + TLB); the board
	// must eventually refuse new processes (§4.4: limited by the amount
	// of available SRAM and the number of processes).
	testCluster(t, 1, func(p *simProc, c *Cluster) {
		created := 0
		for i := 0; i < 64; i++ {
			_, err := c.Nodes[0].NewProcess(p)
			if err != nil {
				break
			}
			created++
		}
		if created == 64 {
			t.Fatal("64 processes registered; SRAM budget not enforced")
		}
		if created < 3 {
			t.Fatalf("only %d processes fit; budget too tight", created)
		}
		t.Logf("%d processes fit in 256KB SRAM", created)
		usage := c.Nodes[0].Board.SRAM.Allocations()
		if usage["incoming-pt"] == 0 || usage["lcp-code"] == 0 {
			t.Errorf("expected lcp-code and incoming-pt allocations, got %v", usage)
		}
	})
}

func TestProcessCloseFreesSRAMForNewProcess(t *testing.T) {
	testCluster(t, 1, func(p *simProc, c *Cluster) {
		var procs []*Process
		for {
			pr, err := c.Nodes[0].NewProcess(p)
			if err != nil {
				break
			}
			procs = append(procs, pr)
		}
		if err := procs[0].Close(p); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Nodes[0].NewProcess(p); err != nil {
			t.Errorf("process slot not reclaimed: %v", err)
		}
	})
}

func TestCRCErrorDetectedAndDropped(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(mem.PageSize)
		if err := send.Write(src, []byte{0xAB}); err != nil {
			t.Fatal(err)
		}

		pl := fault.NewPlan(c.Eng, 1)
		c.Net.SetFaults(pl)
		pl.CorruptNextOn(c.Nodes[0].Board.NIC.ID, 1)
		if err := send.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
			t.Fatal(err) // sync send completes: error is receive-side
		}
		p.Sleep(sim.Millisecond)
		if got := nodeCounter(t, c.Nodes[1], "lcp_crc_errors"); got != 1 {
			t.Errorf("CRC errors = %d, want 1", got)
		}
		// No recovery (§4.2): data must NOT have been delivered.
		data, _ := recv.Read(buf, 1)
		if data[0] == 0xAB {
			t.Error("corrupted packet was delivered")
		}
		// Subsequent traffic is unaffected.
		if err := send.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinByte(p, buf, 0xAB)
	})
}

func TestImportCapacityEightMegabytes(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[1].NewProcess(p)
		imp, _ := c.Nodes[0].NewProcess(p)
		// Outgoing page table holds 2048 pages = 8 MB (§4.4).
		const half = 4 << 20
		b1, err := exp.Malloc(half)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := exp.Malloc(half)
		if err != nil {
			t.Fatal(err)
		}
		b3, err := exp.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Export(p, 1, b1, half, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := exp.Export(p, 2, b2, half, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := exp.Export(p, 3, b3, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := imp.Import(p, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := imp.Import(p, 1, 2); err != nil {
			t.Fatal(err)
		}
		// Table is now exactly full; one more page must fail.
		if _, _, err := imp.Import(p, 1, 3); err != ErrImportTooBig {
			t.Errorf("import beyond 8MB got %v, want ErrImportTooBig", err)
		}
	})
}

func TestMultipleSendersInterleave(t *testing.T) {
	// Several processes on one node send concurrently through their own
	// queues; all messages must arrive intact.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		const nsenders = 3
		const window = 4 * mem.PageSize
		bufs := make([]mem.VirtAddr, nsenders)
		for i := 0; i < nsenders; i++ {
			bufs[i], _ = recv.Malloc(window)
			if err := recv.Export(p, uint32(10+i), bufs[i], window, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		doneCnt := 0
		done := sim.NewCond(c.Eng)
		for i := 0; i < nsenders; i++ {
			i := i
			c.Eng.Go("sender", func(sp *simProc) {
				defer func() { doneCnt++; done.Broadcast() }()
				proc, err := c.Nodes[0].NewProcess(sp)
				if err != nil {
					t.Error(err)
					return
				}
				dest, _, err := proc.Import(sp, 1, uint32(10+i))
				if err != nil {
					t.Error(err)
					return
				}
				src, _ := proc.Malloc(window)
				payload := make([]byte, window)
				for j := range payload {
					payload[j] = byte(i + 1)
				}
				if err := proc.Write(src, payload); err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < 5; k++ {
					if err := proc.SendMsgSync(sp, src, dest, window, SendOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		for doneCnt < nsenders {
			done.Wait(p)
		}
		p.Sleep(5 * sim.Millisecond)
		for i := 0; i < nsenders; i++ {
			data, _ := recv.Read(bufs[i], window)
			for j, b := range data {
				if b != byte(i+1) {
					t.Fatalf("sender %d buffer corrupted at %d: %#x", i, j, b)
				}
			}
		}
	})
}

func TestConcurrentSendQueueSlotContention(t *testing.T) {
	// Several processes race through deliberately tiny send-queue
	// partitions: each ring holds 2 entries while each sender posts 16
	// short messages back to back, so every sender repeatedly fills its
	// ring and spins for the LCP to drain it. The partitions must stay
	// independent — every message arrives intact, no sender starves —
	// and closing the processes must return every slot, leaving room
	// for a full-depth process afterwards.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		const nsenders = 4
		const msgs = 16
		const msgLen = 64 // short-send path: posts copy inline into the ring
		bufs := make([]mem.VirtAddr, nsenders)
		for i := 0; i < nsenders; i++ {
			bufs[i], _ = recv.Malloc(mem.PageSize)
			if err := recv.Export(p, uint32(20+i), bufs[i], mem.PageSize, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		limits := ProcLimits{SendQueueEntries: 2, TLBEntries: 32}
		doneCnt := 0
		done := sim.NewCond(c.Eng)
		for i := 0; i < nsenders; i++ {
			i := i
			c.Eng.Go("squeezed-sender", func(sp *simProc) {
				defer func() { doneCnt++; done.Broadcast() }()
				proc, err := c.Nodes[0].NewProcessWith(sp, limits)
				if err != nil {
					t.Error(err)
					return
				}
				if got := proc.Limits().SendQueueEntries; got != 2 {
					t.Errorf("sender %d queue depth = %d, want 2", i, got)
				}
				dest, _, err := proc.Import(sp, 1, uint32(20+i))
				if err != nil {
					t.Error(err)
					return
				}
				src, _ := proc.Malloc(mem.PageSize)
				for k := 0; k < msgs; k++ {
					payload := make([]byte, msgLen)
					for j := range payload {
						payload[j] = byte(i + 1)
					}
					payload[0] = byte(k + 1)
					if err := proc.Write(src, payload); err != nil {
						t.Error(err)
						return
					}
					// Async post: floods the 2-entry ring and spins on full.
					if _, err := proc.SendMsg(sp, src, dest+ProxyAddr(k*msgLen), msgLen, SendOptions{}); err != nil {
						t.Errorf("sender %d msg %d: %v", i, k, err)
						return
					}
				}
				if err := proc.Close(sp); err != nil {
					t.Error(err)
				}
			})
		}
		for doneCnt < nsenders {
			done.Wait(p)
		}
		p.Sleep(5 * sim.Millisecond)
		for i := 0; i < nsenders; i++ {
			data, _ := recv.Read(bufs[i], msgs*msgLen)
			for k := 0; k < msgs; k++ {
				chunk := data[k*msgLen : (k+1)*msgLen]
				if chunk[0] != byte(k+1) || chunk[1] != byte(i+1) {
					t.Fatalf("sender %d msg %d corrupted: lead bytes %#x %#x", i, k, chunk[0], chunk[1])
				}
			}
		}
		// All partitions released: a default (full-depth) process fits.
		if _, err := c.Nodes[0].NewProcess(p); err != nil {
			t.Errorf("slots not reclaimed after contention: %v", err)
		}
	})
}

func TestConcurrentTLBContentionUnderEviction(t *testing.T) {
	// Two processes with small TLB partitions stream buffers several
	// times their TLB capacity, concurrently. Every transfer forces
	// refills and evictions in its own partition; the data must arrive
	// intact and teardown must unpin everything the TLBs held. The
	// requested 8-entry TLB also exercises the 2*TLBRefillBatch floor:
	// without it, a refill batch evicts its own faulting page and the
	// transfer livelocks.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		const nsenders = 2
		const tlbCap = 2 * TLBRefillBatch // the floored partition size
		const pages = 3 * tlbCap          // stream 3x the TLB's reach
		const window = pages * mem.PageSize
		bufs := make([]mem.VirtAddr, nsenders)
		for i := 0; i < nsenders; i++ {
			bufs[i], _ = recv.Malloc(window)
			if err := recv.Export(p, uint32(30+i), bufs[i], window, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		limits := ProcLimits{SendQueueEntries: 4, TLBEntries: 8}
		procs := make([]*Process, nsenders)
		doneCnt := 0
		done := sim.NewCond(c.Eng)
		for i := 0; i < nsenders; i++ {
			i := i
			c.Eng.Go("tlb-thrasher", func(sp *simProc) {
				defer func() { doneCnt++; done.Broadcast() }()
				proc, err := c.Nodes[0].NewProcessWith(sp, limits)
				if err != nil {
					t.Error(err)
					return
				}
				procs[i] = proc
				dest, _, err := proc.Import(sp, 1, uint32(30+i))
				if err != nil {
					t.Error(err)
					return
				}
				src, _ := proc.Malloc(window)
				payload := make([]byte, window)
				for j := range payload {
					payload[j] = byte(i + 1)
				}
				if err := proc.Write(src, payload); err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < 3; k++ {
					if err := proc.SendMsgSync(sp, src, dest, window, SendOptions{}); err != nil {
						t.Errorf("thrasher %d pass %d: %v", i, k, err)
						return
					}
				}
				// The partition bounds what the TLB can hold pinned: a
				// process never holds more translations than its (floored)
				// TLB's entries, plus its status page.
				if pins := proc.PinnedFrames(); pins > tlbCap+1 {
					t.Errorf("thrasher %d holds %d pins, partition allows %d", i, pins, tlbCap+1)
				}
			})
		}
		for doneCnt < nsenders {
			done.Wait(p)
		}
		p.Sleep(5 * sim.Millisecond)
		for i := 0; i < nsenders; i++ {
			data, _ := recv.Read(bufs[i], window)
			for j, b := range data {
				if b != byte(i+1) {
					t.Fatalf("thrasher %d buffer corrupted at %d: %#x", i, j, b)
				}
			}
			if err := procs[i].Close(p); err != nil {
				t.Fatal(err)
			}
			if pins := procs[i].PinnedFrames(); pins != 0 {
				t.Errorf("thrasher %d still holds %d pins after close", i, pins)
			}
		}
	})
}
