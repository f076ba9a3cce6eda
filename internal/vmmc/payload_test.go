package vmmc

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The payload path: one buffer per packet, handed from the sending LCP to
// the fabric to the receiving LCP and back to the free list, or — with the
// reliability layer — shared between the retransmit window and every
// transmission.

// A bit error on the first transmission of a chunk must cost exactly one
// CRC drop and nothing else: the retransmission comes out of the same
// buffer the damaged packet was built from, so it only carries the
// original bytes if the damage was done to a private copy.
func TestFaultedChunkRetransmitsOriginalBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(c *Cluster)
	}{
		{"plan", func(c *Cluster) {
			pl := fault.NewPlan(c.Eng, 1)
			c.Net.SetFaults(pl)
			pl.CorruptNextOn(c.Nodes[0].Board.NIC.ID, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reliableCluster(t, func(p *simProc, c *Cluster) {
				recv, _ := c.Nodes[1].NewProcess(p)
				send, _ := c.Nodes[0].NewProcess(p)
				const size = mem.PageSize // one chunk, one packet
				buf, _ := recv.Malloc(size)
				if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
					t.Fatal(err)
				}
				dest, _, _ := send.Import(p, 1, 1)
				src, _ := send.Malloc(size)
				msg := make([]byte, size)
				for i := range msg {
					msg[i] = byte(i*5 + 1)
				}
				if err := send.Write(src, msg); err != nil {
					t.Fatal(err)
				}

				tc.inject(c)
				if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
					t.Fatal(err)
				}
				recv.SpinByte(p, buf+size-1, msg[size-1])
				p.Sleep(5 * sim.Millisecond) // let the acks and any straggler settle

				if got, _ := recv.Read(buf, size); !bytes.Equal(got, msg) {
					t.Error("retransmission delivered bytes that differ from the original")
				}
				if got, _ := send.Read(src, size); !bytes.Equal(got, msg) {
					t.Error("bit error reached the sender's source memory")
				}
				n0, n1 := c.Nodes[0], c.Nodes[1]
				if drops := boardCounter(t, n0, "rl_corrupt_drops") + boardCounter(t, n1, "rl_corrupt_drops"); drops != 1 {
					t.Errorf("corrupt drops = %d, want exactly 1", drops)
				}
				if n := boardCounter(t, n1, "rl_deliveries"); n != 1 {
					t.Errorf("link-layer deliveries = %d, want 1", n)
				}
				if boardCounter(t, n0, "rl_retransmits") == 0 {
					t.Error("no retransmission despite the drop")
				}
				if n := nodeCounter(t, n1, "lcp_crc_errors") + nodeCounter(t, n1, "lcp_protection_violations"); n != 0 {
					t.Errorf("%d damaged packets got past the link layer", n)
				}
			})
		})
	}
}

// longSendRig sets a 64 KB one-way channel up between two nodes and hands
// fn two steady-state operations: long sends a 64 KB message and waits
// until its last byte has landed, short does a 4-byte SendMsgSync and
// waits likewise. Each call changes the bytes it sends, and check compares
// the receiver's whole window with the sender's. With poison set, packet
// buffers are overwritten as they return to the free list; with reliable
// set, the channel runs over the link layer.
func longSendRig(t testing.TB, poison, reliable bool, fn func(p *simProc, long, short func(), check func() bool)) {
	const size = 64 << 10
	startCluster(t, Options{Nodes: 2, Reliable: reliable}, poison, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(size)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*7 + i/mem.PageSize)
		}
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		var k byte
		stamp := func(off int) {
			// A new byte in every page, so no chunk repeats the last one's
			// bytes, and a new final byte to wait for.
			k++
			for o := off; o < size; o += mem.PageSize {
				msg[o] = k
				if err := send.Write(src+mem.VirtAddr(o), msg[o:o+1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		long := func() {
			stamp(mem.PageSize - 1)
			seq, err := send.SendMsg(p, src, dest, size, SendOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := send.WaitSend(p, seq); err != nil {
				t.Fatal(err)
			}
			recv.SpinByte(p, buf+size-1, k)
		}
		short := func() {
			stamp(size - 1) // the last page's last byte only
			const at = size - 4
			if err := send.SendMsgSync(p, src+at, dest+at, 4, SendOptions{}); err != nil {
				t.Fatal(err)
			}
			recv.SpinByte(p, buf+size-1, k)
		}
		check := func() bool {
			got, _ := recv.Read(buf, size)
			return bytes.Equal(got, msg)
		}
		fn(p, long, short, check)
	})
}

// A 64 KB stream with released buffers and packet records poisoned: every
// message differs from the last in every chunk, so a deposit fed from a
// recycled buffer — poison, or the previous packet's bytes — cannot compare
// equal. Over the link layer the receive engine releases every ack it
// consumes, under the same poison.
func TestStreamUnderBufferPoison(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		longSendRig(t, true, reliable, func(_ *simProc, long, short func(), check func() bool) {
			for i := 0; i < 12; i++ {
				long()
				if !check() {
					t.Fatalf("message %d (reliable=%v): received window differs from the sent one", i, reliable)
				}
				short()
				if !check() {
					t.Fatalf("short message %d (reliable=%v): received window differs from the sent one", i, reliable)
				}
			}
		})
	}
}

// Allocation ceilings for the steady state, so the per-packet copies,
// per-transfer strings and per-chunk processes cannot creep back: a 64 KB
// message once cost about 360 allocations and 160 KB, two fresh page-sized
// buffers per chunk among them; with a process per chunk's host DMA, and a
// receive queue that grew a fresh array per packet, it cost 149; with a
// packet record, its delivery closure and its ingress slice allocated per
// packet and a long-send job per message, 55. Packet records and jobs are
// recycled now, so nothing on the paper's link is allocated per packet:
// the two allocations left per message are the waiting side's own
// predicates (WaitSend's, SpinByte's). Over the link layer each packet
// adds its window entry and its frame (a window keeps it, so it is never
// recycled), the acks add theirs, and the retransmit timers theirs. The
// ceilings are the measured counts (go1.24), with and without the race
// detector; they were 55 and 5 on the paper's link and 101 and 8 over the
// link layer while packet records and jobs were not recycled, and 3 and 37
// for the long send while WaitSend's result escaped beside its predicate.
func TestSteadyStateAllocationCeilings(t *testing.T) {
	for _, rig := range []struct {
		reliable                  bool
		longCeiling, shortCeiling float64
	}{
		{false, 2, 2},
		{true, 36, 4},
	} {
		longSendRig(t, false, rig.reliable, func(_ *simProc, long, short func(), check func() bool) {
			for i := 0; i < 4; i++ { // fill the free list, warm the TLBs
				long()
				short()
			}
			for _, op := range []struct {
				name    string
				do      func()
				runs    int
				ceiling float64
			}{
				{"64 KB SendMsg + delivery", long, 10, rig.longCeiling},
				{"4-byte SendMsgSync + delivery", short, 50, rig.shortCeiling},
			} {
				if n := testing.AllocsPerRun(op.runs, op.do); n > op.ceiling {
					t.Errorf("%s (reliable=%v): %.0f allocations, ceiling %.0f", op.name, rig.reliable, n, op.ceiling)
				} else {
					t.Logf("%s (reliable=%v): %.0f allocations", op.name, rig.reliable, n)
				}
			}
			if !check() {
				t.Error("received window differs from the sent one")
			}
		})
	}
}

// notifyRig exports a page with notifications on and hands fn an op that
// sends a notifying 4-byte SendMsgSync and waits until the receiver's
// handler has run.
func notifyRig(t *testing.T, fn func(p *simProc, notify func())) {
	startCluster(t, Options{Nodes: 2}, false, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 9, buf, mem.PageSize, nil, true); err != nil {
			t.Error(err)
			return
		}
		fired := 0
		arrived := sim.NewCond(c.Eng)
		recv.RegisterHandler(9, func(from ProcID, tag uint32, offset, length int) {
			if offset != 8 || length != 4 {
				t.Errorf("notification for %d bytes at %d, want 4 at 8", length, offset)
			}
			fired++
			arrived.Broadcast()
		})
		dest, _, err := send.Import(p, 1, 9)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(mem.PageSize)
		fn(p, func() {
			want := fired + 1
			if err := send.SendMsgSync(p, src, dest+8, 4, SendOptions{Notify: true}); err != nil {
				t.Error(err)
				return
			}
			for fired < want {
				arrived.Wait(p)
			}
		})
	})
}

// The allocation ceiling of a notification: one notifying 4-byte
// SendMsgSync through to the receiver's handler. What is left is the short
// send's inline copy of its payload; the notification costs nothing on top
// of it: the interrupt and the handler are a chain of continuations over a
// recycled record, and no names are built, no unpooled event, no packet
// record, no process. Measured (go1.24): 1; it was 15, then 8 while the
// packet record, its delivery closure and its ingress slice were allocated
// per packet, then 5 while the interrupt boxed its cause, closed over it
// twice and ran in a service process of its own, then 2 while the handler
// ran in a process of its own.
func TestNotificationAllocationCeilings(t *testing.T) {
	const ceiling = 1
	notifyRig(t, func(_ *simProc, notify func()) {
		for i := 0; i < 4; i++ {
			notify()
		}
		if n := testing.AllocsPerRun(50, notify); n > ceiling {
			t.Errorf("notifying 4-byte SendMsgSync + handler: %.0f allocations, ceiling %d", n, ceiling)
		} else {
			t.Logf("notifying 4-byte SendMsgSync + handler: %.0f allocations", n)
		}
	})
}

// Handoff ceilings for the same two operations, on the paper's link and
// over the link layer, and for a notification through to its handler. Host microseconds cannot be gated in CI; the number
// of times the baton changes goroutine is an exact count, and it is what a
// process switch costs. A park that the parking goroutine ends itself
// (SchedStats.SelfResumes: a DMA engine sleeping for its transfer time, a
// spin that sees its own send land) is free; only a resume of a different
// process sends a token. The ceilings are the measured counts, at 236 and
// 18 events on the paper's link and 288 and 20 over the link layer. The
// receive engine, its acks included, is a chain of continuations and costs
// none; as a process taking turns with the receiver's LCP it cost 100 and
// 4 handoffs, 113 and 6 over the link layer (and a chunk's host DMA as a
// process, 147 on the paper's link). What is left, about four per chunk,
// is the sender's LCP, the receiver's LCP and the waiting process taking
// turns. A notification costs 3 handoffs at 22 events: the handler runs in
// the signal's event and wakes the waiting process, where it used to run
// in a process of its own, started once the signal was delivered (4
// handoffs), and before that a service process slept through the
// interrupt entry and the signal (14 self-resumes where there are 12 now;
// the handoffs these save show where notifications overlap other work, as
// in an all-reduce).
func TestSteadyStateHandoffCeilings(t *testing.T) {
	measure := func(p *simProc, name string, do func(), ceiling uint64) {
		before := p.Engine().SchedStats()
		do()
		after := p.Engine().SchedStats()
		handoffs, self := after.Handoffs-before.Handoffs, after.SelfResumes-before.SelfResumes
		if handoffs > ceiling {
			t.Errorf("%s: %d handoffs, ceiling %d", name, handoffs, ceiling)
		}
		t.Logf("%s: %d handoffs, %d self-resumes, %d events",
			name, handoffs, self, after.Dispatched-before.Dispatched)
	}
	for _, rig := range []struct {
		reliable                  bool
		longCeiling, shortCeiling uint64
	}{
		{false, 66, 3},
		{true, 62, 3},
	} {
		longSendRig(t, false, rig.reliable, func(p *simProc, long, short func(), check func() bool) {
			for i := 0; i < 4; i++ {
				long()
				short()
			}
			measure(p, fmt.Sprintf("64 KB SendMsg + delivery (reliable=%v)", rig.reliable), long, rig.longCeiling)
			measure(p, fmt.Sprintf("4-byte SendMsgSync + delivery (reliable=%v)", rig.reliable), short, rig.shortCeiling)
		})
	}
	notifyRig(t, func(p *simProc, notify func()) {
		for i := 0; i < 4; i++ {
			notify()
		}
		measure(p, "notifying 4-byte SendMsgSync + handler", notify, 3)
	})
}

// Event ceilings for the paper's headline operation, a 4-byte ping-pong:
// SendMsgSync one way, SpinByte on the flag, the same back. Both spins are
// memory-scoped, so a sample is evaluated only after a store into its own
// node's memory; what CI holds here is how many events a round trip
// dispatches and how many of them are re-checks that found nothing (a DMA
// wrote the node's memory, but not the awaited byte). Under the
// engine-wide rule every event anywhere re-checked both spins: 89 events
// a round trip at the parent of this change, 53 of them false samples.
func TestSteadyStateEventCeilings(t *testing.T) {
	const rounds = 16
	const eventCeiling, falseCeiling = 38, 2 // per round trip; measured 38 and 2
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		a, _ := c.Nodes[0].NewProcess(p)
		b, _ := c.Nodes[1].NewProcess(p)
		bufA, _ := a.Malloc(mem.PageSize)
		bufB, _ := b.Malloc(mem.PageSize)
		if err := a.Export(p, 1, bufA, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := b.Export(p, 2, bufB, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		toB, _, errB := a.Import(p, 1, 2)
		toA, _, errA := b.Import(p, 0, 1)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		srcA, _ := a.Malloc(mem.PageSize)
		srcB, _ := b.Malloc(mem.PageSize)
		const warm = 4
		c.Eng.Go("echo", func(bp *simProc) {
			for i := 1; i <= warm+rounds; i++ {
				b.SpinByte(bp, bufB+3, byte(i))
				b.Write(srcB, []byte{0, 0, 0, byte(i)})
				if err := b.SendMsgSync(bp, srcB, toA, 4, SendOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		})
		var before sim.SchedStats
		for i := 1; i <= warm+rounds; i++ {
			if i == warm+1 {
				before = c.Eng.SchedStats()
			}
			a.Write(srcA, []byte{0, 0, 0, byte(i)})
			if err := a.SendMsgSync(p, srcA, toB, 4, SendOptions{}); err != nil {
				t.Fatal(err)
			}
			a.SpinByte(p, bufA+3, byte(i))
		}
		after := c.Eng.SchedStats()
		events, falses := after.Dispatched-before.Dispatched, after.SampledFalse-before.SampledFalse
		if events > eventCeiling*rounds {
			t.Errorf("%d events over %d round trips, ceiling %d each", events, rounds, eventCeiling)
		}
		if falses > falseCeiling*rounds {
			t.Errorf("%d false samples over %d round trips, ceiling %d each", falses, rounds, falseCeiling)
		}
		t.Logf("per round trip: %.2f events, %.2f samples of which %.2f false, %.2f elided",
			float64(events)/rounds, float64(after.Sampled-before.Sampled)/rounds,
			float64(falses)/rounds, float64(after.Elided-before.Elided)/rounds)
	})
}

// The memory ceiling of a node: what building and booting a 2-node cluster
// with 64 MB of RAM per node, then one exported page and a 4-byte send,
// costs the host's heap. Simulated RAM is allocated a frame at a time on
// its first write, so what is left is per-frame bookkeeping — the LCP's
// incoming page table (1.8 MB), mem's frame, pin and free tables (1.5 MB)
// — the boards' SRAM (0.5 MB) and the few frames boot and the send write.
// Measured (go1.24): 4.0 MB. Allocating every node's RAM at boot cost
// 131.7 MB.
func TestNodeMemoryCeilings(t *testing.T) {
	const ceilingMB = 5
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startCluster(t, Options{Nodes: 2, MemBytes: 64 << 20}, false, func(p *simProc, c *Cluster) {
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
		if err := send.Write(src, []byte{1, 2, 3, 4}); err != nil {
			t.Error(err)
			return
		}
		if err := send.SendMsgSync(p, src, dest, 4, SendOptions{}); err != nil {
			t.Error(err)
			return
		}
		recv.SpinByte(p, buf+3, 4)
	})
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if mb > ceilingMB {
		t.Errorf("2 nodes x 64 MB: %.1f MB allocated, ceiling %d MB", mb, ceilingMB)
	} else {
		t.Logf("2 nodes x 64 MB: %.1f MB allocated", mb)
	}
}

// BenchmarkLongSend64K is one 64 KB SendMsg through to the last deposited
// byte: 17 packets' worth of host DMA, CRC, wire and deposit.
func BenchmarkLongSend64K(b *testing.B) {
	longSendRig(b, false, false, func(_ *simProc, long, short func(), check func() bool) {
		long()
		b.SetBytes(64 << 10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			long()
		}
		b.StopTimer()
		if !check() {
			b.Error("received window differs from the sent one")
		}
	})
}
