package myrinet

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// crc8Bytewise is the textbook one-table-lookup-per-byte CRC-8: the
// reference the word-wide kernel must agree with everywhere.
func crc8Bytewise(data []byte) byte {
	var c byte
	for _, b := range data {
		c = crcTable[c^b]
	}
	return c
}

// The kernel switches strategy at 8- and 16-byte boundaries and loads
// words at whatever alignment the slice starts on: every short length at
// every start offset, then seeded random buffers up to two pages.
func TestCRC8MatchesBytewiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC8C8))
	backing := make([]byte, 8+64)
	rng.Read(backing)
	for off := 0; off < 8; off++ {
		for n := 0; n <= 64; n++ {
			data := backing[off : off+n]
			if got, want := CRC8(data), crc8Bytewise(data); got != want {
				t.Fatalf("offset %d length %d: CRC8 = %#x, bytewise = %#x", off, n, got, want)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(8<<10+1))
		rng.Read(data)
		if got, want := CRC8(data), crc8Bytewise(data); got != want {
			t.Fatalf("random buffer %d (length %d): CRC8 = %#x, bytewise = %#x", i, len(data), got, want)
		}
	}
}

var crcSink byte

// One page-sized chunk plus its headers — the packet the bulk path sends.
// The result is folded into a package variable: with nothing consuming it
// the loads are dead code and the loop reads about three times too fast.
func BenchmarkCRC8(b *testing.B) {
	data := make([]byte, 4128)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crcSink ^= CRC8(data)
	}
}

// A bit error must damage only the transmission it hits. Send hands the
// caller's buffer to the packet uncopied, and a retransmit window resends
// that same buffer: were the flip made in place, the resend would carry
// the damage under a CRC that matches it.
func TestBitErrorLeavesSendersBufferIntact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(n *Network, nic *NIC)
	}{
		{"plan tx end", func(n *Network, nic *NIC) {
			pl := fault.NewPlan(n.Engine(), 1)
			n.SetFaults(pl)
			pl.CorruptNextOn(nic.ID, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, n := star4(t)
			nics := n.NICs()
			tc.inject(n, nics[0])
			frame := []byte("one buffer, sent twice")
			orig := append([]byte(nil), frame...)
			var first, second *Packet
			e.Go("recv", func(p *sim.Proc) {
				first = nics[1].RX.Get(p)
				second = nics[1].RX.Get(p)
			})
			e.Go("send", func(p *sim.Proc) {
				nics[0].Send(p, []byte{1}, frame)
				nics[0].Send(p, []byte{1}, frame)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if first.CheckCRC() {
				t.Error("damaged transmission passed its CRC check")
			}
			if !bytes.Equal(frame, orig) {
				t.Errorf("sender's buffer changed: %q", frame)
			}
			if !second.CheckCRC() || !bytes.Equal(second.Payload, orig) {
				t.Errorf("retransmission of the same buffer arrived as %q (crc ok %v)", second.Payload, second.CheckCRC())
			}
		})
	}
}

// Buffers cycle only when their sender gave them up: SendOwned packets
// return to the free list on Release, Send packets never do; the list is
// bounded; poisoning overwrites what a stale reader would see.
func TestPacketBufferRecycling(t *testing.T) {
	e, n := star4(t)
	n.PoisonReleased()
	n.VerifyIntact()
	nics := n.NICs()
	var owned, shared *Packet
	e.Go("recv", func(p *sim.Proc) {
		owned = nics[1].RX.Get(p)
		shared = nics[1].RX.Get(p)
	})
	kept := append(make([]byte, 0, bufSize), "sender keeps this"...)
	e.Go("send", func(p *sim.Proc) {
		nics[0].SendOwned(p, []byte{1}, append(nics[0].Buf(32), "receiver may recycle"...))
		nics[0].Send(p, []byte{1}, kept)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	if !owned.CheckCRC() || !shared.CheckCRC() {
		t.Error("an undamaged packet failed its CRC check")
	}
	stale := owned.Payload
	nics[1].Release(owned)
	nics[1].Release(shared)
	if len(n.freeBufs) != 1 {
		t.Fatalf("free list holds %d buffers after one owned and one shared release, want 1", len(n.freeBufs))
	}
	if string(kept) != "sender keeps this" {
		t.Errorf("shared buffer touched by Release: %q", kept)
	}
	if !bytes.Equal(stale, bytes.Repeat([]byte{0xDB}, len(stale))) {
		t.Errorf("released buffer not poisoned: %q", stale)
	}
	if again := nics[2].Buf(4000)[:1]; &again[0] != &stale[0] {
		t.Error("Buf did not reuse the released buffer")
	}
	if len(n.freeBufs) != 0 {
		t.Errorf("free list holds %d buffers after reuse, want 0", len(n.freeBufs))
	}

	// Oversize requests bypass the pool, and the pool stops at its bound.
	if big := nics[0].Buf(bufSize + 1); cap(big) <= bufSize {
		t.Error("oversize request served from a pooled-size buffer")
	}
	consumed := make([]*Packet, maxFreeBufs+8)
	for i := range consumed {
		consumed[i] = nics[0].packet(nil, make([]byte, 1, bufSize), true)
	}
	for _, pk := range consumed {
		nics[0].Release(pk)
	}
	if len(n.freeBufs) != maxFreeBufs || len(n.freePkts) != maxFreeBufs {
		t.Errorf("free lists grew to %d buffers and %d records, bound is %d", len(n.freeBufs), len(n.freePkts), maxFreeBufs)
	}
}

// Records cycle too, owned or not: a released record is the next one a
// send takes, two packets in flight never share one, a reused record
// carries its new route's ingress and nothing of its last, and poison
// marks a released record as one nobody may read.
func TestPacketRecordRecycling(t *testing.T) {
	e, n, a, b := chain3(t)
	c := n.AddNIC()
	if err := n.AttachNIC(c, n.Switches()[0], 1); err != nil {
		t.Fatal(err)
	}
	n.PoisonReleased()
	e.Go("traffic", func(p *sim.Proc) {
		a.Send(p, []byte{7, 7, 1}, []byte("three switches"))
		a.Send(p, []byte{1}, []byte("one switch"))
		far, near := b.RX.Get(p), c.RX.Get(p)
		if far == near {
			t.Fatal("two packets in flight share a record")
		}
		if !bytes.Equal(far.Ingress, []byte{0, 6, 6}) {
			t.Errorf("three-switch ingress = %v, want [0 6 6]", far.Ingress)
		}
		b.Release(far)
		if far.Src != -1 || far.Route != nil || !bytes.Equal(far.Ingress, []byte{0xDB, 0xDB, 0xDB}) {
			t.Errorf("released record not poisoned: Src %d, Route %v, Ingress %v", far.Src, far.Route, far.Ingress)
		}

		a.Send(p, []byte{1}, []byte("again"))
		again := c.RX.Get(p)
		if again != far {
			t.Error("the released record was not the next one handed out")
		}
		if !bytes.Equal(again.Ingress, []byte{0}) {
			t.Errorf("reused record's ingress = %v, want [0]", again.Ingress)
		}
		if again.Src != a.ID || string(again.Payload) != "again" || !again.CheckCRC() {
			t.Errorf("reused record carries Src %d, payload %q", again.Src, again.Payload)
		}
		if again == near {
			t.Error("a record still held by its consumer was handed out again")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
