package vmmc

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// qosLimits are the partitioned budgets of a process sharing a board with
// other tenants: two full-size TLB carves do not fit one board's SRAM.
var qosLimits = ProcLimits{SendQueueEntries: 8, TLBEntries: 256}

// qosTenant sets up one tenant of the pacer-aware scheduler's tests: a
// sender on node 0 in the given traffic class, and a receiver on node 1
// exporting a size-byte window under tag, which the sender imports.
// Returns the sender, its import destination, the receiver and its window.
func qosTenant(t *testing.T, p *simProc, c *Cluster, class int, tag uint32, size int) (send *Process, dest ProxyAddr, recv *Process, win mem.VirtAddr) {
	t.Helper()
	recv, err := c.Nodes[1].NewProcessWith(p, qosLimits)
	if err != nil {
		t.Fatal(err)
	}
	limits := qosLimits
	limits.Class = class
	if send, err = c.Nodes[0].NewProcessWith(p, limits); err != nil {
		t.Fatal(err)
	}
	if win, err = recv.Malloc(size); err != nil {
		t.Fatal(err)
	}
	if err := recv.Export(p, tag, win, size, nil, false); err != nil {
		t.Fatal(err)
	}
	if dest, _, err = send.Import(p, 1, tag); err != nil {
		t.Fatal(err)
	}
	return send, dest, recv, win
}

// qosPair sets up the two-tenant-on-one-board shape the pacer-aware
// scheduler exists for: a bulk sender in paced class 1 and a victim in
// the unpaced default class, both on node 0, each with a window imported
// from its own receiver process on node 1. Returns (bulk, victim) sender
// processes and their import destinations.
func qosPair(t *testing.T, p *simProc, c *Cluster) (bulk, victim *Process, bulkDest, victimDest ProxyAddr) {
	t.Helper()
	bulk, bulkDest, _, _ = qosTenant(t, p, c, 1, 1, 32*mem.PageSize)
	victim, victimDest, _, _ = qosTenant(t, p, c, 0, 2, mem.PageSize)
	return bulk, victim, bulkDest, victimDest
}

// TestDeficitSkipServesUnpacedShorts pins the tentpole property: a bulk
// class driven deep into pacing deficit must not delay another class's
// short sends. Under the old blocking pacer the LCP proc itself slept
// out each chunk's refill deficit (~2 ms per 4 KB page at 2 MB/s), so a
// victim short posted meanwhile waited milliseconds; with deficit-skip
// scheduling the LCP treats the bulk job as not-ready and serves the
// short immediately.
func TestDeficitSkipServesUnpacedShorts(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		bulk, victim, bulkDest, victimDest := qosPair(t, p, c)
		board := c.Nodes[0].Board
		board.ConfigureLinkClass(1, 2e6, 8<<10) // 2 MB/s, 8 KB burst

		const bulkBytes = 24 * mem.PageSize
		src, err := bulk.Malloc(bulkBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := bulk.Write(src, make([]byte, bulkBytes)); err != nil {
			t.Fatal(err)
		}
		bulkDone := false
		c.Eng.Go("bulk-sender", func(bp *simProc) {
			if err := bulk.SendMsgSync(bp, src, bulkDest, bulkBytes, SendOptions{}); err != nil {
				t.Errorf("bulk long send: %v", err)
			}
			bulkDone = true
		})

		vsrc, err := victim.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.Write(vsrc, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		// Let the bulk job burn its burst and fall into deficit, then post
		// shorts spread across the (tens of ms) paced transfer. Shorts
		// complete at post time, so SendMsgSync's return bounds the LCP's
		// service latency.
		p.Sleep(5 * sim.Millisecond)
		const bound = 500 * sim.Microsecond
		for i := 0; i < 8; i++ {
			begin := p.Now()
			if err := victim.SendMsgSync(p, vsrc, victimDest, 2, SendOptions{}); err != nil {
				t.Fatalf("victim short %d: %v", i, err)
			}
			if lat := p.Now() - begin; lat > bound {
				t.Errorf("victim short %d took %v, want < %v (paced bulk class delayed an unpaced short)",
					i, lat, bound)
			}
			p.Sleep(2 * sim.Millisecond)
		}
		victim.SpinUntil(p, func() bool { return bulkDone })

		ls := board.LinkScheduler()
		throttles, throttledNS := ls.ClassStats(1)
		if throttles == 0 || throttledNS == 0 {
			t.Errorf("pacer never engaged: class 1 stats (%d, %v)", throttles, throttledNS)
		}
		// Attribution must reconcile: class 1 is the only budgeted class,
		// so its per-class counters equal the scheduler totals.
		checkThrottleTotals(t, c.Nodes[0], throttles, throttledNS)
		if nodeCounter(t, c.Nodes[0], "lcp_short_preempts") == 0 {
			t.Errorf("no short preempts recorded; victim shorts were not served between bulk chunks")
		}
	})
}

// TestAllClassesDeficientParksAndWakes drives the only runnable job's
// class into deficit with nothing else to serve: the LCP must park and
// wake at the class's eligibility instant — not busy-spin, not deadlock —
// and the transfer must complete at the configured rate.
func TestAllClassesDeficientParksAndWakes(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		small := qosLimits
		small.Class = 1
		recv, err := c.Nodes[1].NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		send, err := c.Nodes[0].NewProcessWith(p, small)
		if err != nil {
			t.Fatal(err)
		}
		const total = 16 * mem.PageSize
		buf, err := recv.Malloc(total)
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Export(p, 1, buf, total, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}

		const rate = 4e6 // bytes/sec
		const burst = 8 << 10
		c.Nodes[0].Board.ConfigureLinkClass(1, rate, burst)

		src, err := send.Malloc(total)
		if err != nil {
			t.Fatal(err)
		}
		if err := send.Write(src, make([]byte, total)); err != nil {
			t.Fatal(err)
		}
		loops := func() int64 {
			return nodeCounter(t, c.Nodes[0], "lcp_main_loop_iterations") +
				nodeCounter(t, c.Nodes[0], "lcp_tight_loop_iterations")
		}
		itersBefore := loops()
		begin := p.Now()
		if err := send.SendMsgSync(p, src, dest, total, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		elapsed := p.Now() - begin
		iters := loops() - itersBefore

		// The pacer must have stretched the transfer to roughly the
		// configured rate: everything past the burst pays refill time.
		// Completion is reported before the final chunk's injection, so
		// the floor excludes one page's worth of deficit.
		floor := sim.Time(float64(total-burst-mem.PageSize) / rate * float64(sim.Second))
		if elapsed < floor {
			t.Errorf("paced %d-byte send finished in %v, want >= %v at %g B/s", total, elapsed, floor, rate)
		}
		// Parking, not polling: each of the 16 chunks needs a handful of
		// loop iterations (DMA completion, eligibility wake, injection); a
		// scheduler spinning through multi-millisecond deficits would burn
		// orders of magnitude more.
		if iters > 500 {
			t.Errorf("paced send took %d LCP loop iterations; the scheduler appears to spin instead of parking", iters)
		}
		ls := c.Nodes[0].Board.LinkScheduler()
		throttles, throttledNS := ls.ClassStats(1)
		if throttles == 0 || throttledNS == 0 {
			t.Errorf("pacer never engaged: class 1 stats (%d, %v)", throttles, throttledNS)
		}
		// Parked deferral time must be attributed: the transfer spent
		// nearly all its stretched duration waiting on eligibility.
		if throttledNS < elapsed/2 {
			t.Errorf("throttled time %v does not account for the paced wait (elapsed %v)", throttledNS, elapsed)
		}
		checkThrottleTotals(t, c.Nodes[0], throttles, throttledNS)
	})
}

// checkThrottleTotals reconciles one class's pacer attribution with the
// board's totals, the qos_throttles and qos_throttled_ns counters: with one
// budgeted class they must be equal.
func checkThrottleTotals(t *testing.T, n *Node, throttles int64, throttledNS sim.Time) {
	t.Helper()
	total, totalNS := boardCounter(t, n, "qos_throttles"), boardCounter(t, n, "qos_throttled_ns")
	if throttles != total || int64(throttledNS) != totalNS {
		t.Errorf("attribution leak: class (%d, %v) vs total (%d, %v)",
			throttles, throttledNS, total, sim.Time(totalNS))
	}
}

// TestPacedShortsDeferredNotBlocking covers the short-send half of
// deficit-skip: shorts in a paced class that is in deficit are deferred
// (the LCP stays live for other work) and still complete once the class
// refills.
func TestPacedShortsDeferredNotBlocking(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		bulk, victim, bulkDest, victimDest := qosPair(t, p, c)
		board := c.Nodes[0].Board
		board.ConfigureLinkClass(1, 1e6, 2<<10) // 1 MB/s, 2 KB burst

		// The paced tenant posts a burst of shorts that overdraws its
		// budget several times over.
		src, err := bulk.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := bulk.Write(src, []byte{1}); err != nil {
			t.Fatal(err)
		}
		const shorts = 40 // 40×128 B headers+payloads ≫ 2 KB burst
		sent := 0
		c.Eng.Go("paced-shorts", func(bp *simProc) {
			for i := 0; i < shorts; i++ {
				if err := bulk.SendMsgSync(bp, src, bulkDest+ProxyAddr(i%8), 100, SendOptions{}); err != nil {
					t.Errorf("paced short %d: %v", i, err)
					return
				}
				sent++
			}
		})

		vsrc, err := victim.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.Write(vsrc, []byte{2}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond) // paced tenant is now deep in deficit
		const bound = 500 * sim.Microsecond
		for i := 0; i < 4; i++ {
			begin := p.Now()
			if err := victim.SendMsgSync(p, vsrc, victimDest, 1, SendOptions{}); err != nil {
				t.Fatalf("victim short %d: %v", i, err)
			}
			if lat := p.Now() - begin; lat > bound {
				t.Errorf("victim short %d took %v, want < %v (deficient class blocked the queue scan)",
					i, lat, bound)
			}
			p.Sleep(sim.Millisecond)
		}
		victim.SpinUntil(p, func() bool { return sent == shorts })
		if n, d := board.LinkScheduler().ClassStats(1); n == 0 || d == 0 {
			t.Errorf("pacer never engaged: class 1 stats (%d, %v)", n, d)
		}
	})
}

// TestOneLongSendPerInterface pins the paper's design point under QoS: the
// LCP runs one long send at a time (§6). While a paced class's long send
// sits in pacing deficit, another class's long send waits for it to
// finish, and only other processes' shorts are served between its chunks.
func TestOneLongSendPerInterface(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		const (
			bulkBytes   = 24 * mem.PageSize
			secondBytes = 4 * mem.PageSize
		)
		bulk, bulkDest, bulkRecv, bulkWin := qosTenant(t, p, c, 1, 1, bulkBytes)
		second, secondDest, secondRecv, secondWin := qosTenant(t, p, c, 2, 2, secondBytes)
		victim, victimDest, _, _ := qosTenant(t, p, c, 0, 3, mem.PageSize)
		board := c.Nodes[0].Board
		board.ConfigureLinkClass(1, 2e6, 8<<10) // 2 MB/s, 8 KB burst

		// longSend posts one long message of distinct bytes from its own
		// process and reports the instant its completion returned.
		longSend := func(name string, proc *Process, dest ProxyAddr, n int, salt byte) (payload []byte, doneAt *sim.Time) {
			payload = make([]byte, n)
			for i := range payload {
				payload[i] = byte(i%251) + salt
			}
			src, err := proc.Malloc(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := proc.Write(src, payload); err != nil {
				t.Fatal(err)
			}
			doneAt = new(sim.Time)
			c.Eng.Go(name, func(sp *simProc) {
				if err := proc.SendMsgSync(sp, src, dest, n, SendOptions{}); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				*doneAt = sp.Now()
			})
			return payload, doneAt
		}
		bulkPayload, bulkDone := longSend("bulk-sender", bulk, bulkDest, bulkBytes, 1)

		// Class 1 spends its burst on the first chunks, then falls into
		// deficit; only then does class 2 post its long send.
		ls := board.LinkScheduler()
		for {
			if at, _ := ls.EligibleAt(1); at > p.Now() {
				break
			}
			p.Sleep(10 * sim.Microsecond)
		}
		secondPayload, secondDone := longSend("second-sender", second, secondDest, secondBytes, 7)

		vsrc, err := victim.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.Write(vsrc, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := victim.SendMsgSync(p, vsrc, victimDest, 2, SendOptions{}); err != nil {
				t.Fatalf("victim short %d: %v", i, err)
			}
			p.Sleep(2 * sim.Millisecond)
		}
		victim.SpinUntil(p, func() bool { return *bulkDone != 0 && *secondDone != 0 })

		if *secondDone <= *bulkDone {
			t.Errorf("class 2's long send completed at %v, before class 1's at %v: a second long send ran beside the deficient one",
				*secondDone, *bulkDone)
		}
		if nodeCounter(t, c.Nodes[0], "lcp_short_preempts") == 0 {
			t.Error("no short preempts recorded; the victim's shorts were not served between the long send's chunks")
		}
		for _, w := range []struct {
			name string
			recv *Process
			win  mem.VirtAddr
			want []byte
		}{{"class 1", bulkRecv, bulkWin, bulkPayload}, {"class 2", secondRecv, secondWin, secondPayload}} {
			w.recv.SpinByte(p, w.win+mem.VirtAddr(len(w.want)-1), w.want[len(w.want)-1])
			if got, _ := w.recv.Read(w.win, len(w.want)); !bytes.Equal(got, w.want) {
				t.Errorf("%s's long payload did not land byte-identical", w.name)
			}
		}
	})
}
