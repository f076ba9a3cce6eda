package myrinet

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// exchange sends each frame from NIC 0 to NIC 1 of a fresh star, in order,
// and returns the packets as delivered. setup arms the faults.
func exchange(t *testing.T, setup func(n *Network, pl *fault.Plan), frames ...[]byte) []*Packet {
	t.Helper()
	e, n := star4(t)
	pl := fault.NewPlan(e, 0x1A2)
	n.SetFaults(pl)
	setup(n, pl)
	nics := n.NICs()
	got := make([]*Packet, 0, len(frames))
	e.Go("recv", func(p *sim.Proc) {
		for range frames {
			got = append(got, nics[1].RX.Get(p))
		}
	})
	e.Go("send", func(p *sim.Proc) {
		for _, f := range frames {
			nics[0].Send(p, []byte{1}, f)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// The CRC of a packet no fault touched is never computed, and the CRC of
// one a fault did touch is computed late, from the bytes as they were
// before the damage. Neither may change what CheckCRC answers: over a
// seeded mix of bit errors and forced corruptions it must equal the check
// an eager sender and receiver would have made, which the test makes
// itself from its own copy of every payload.
func TestLazyCRCMatchesEager(t *testing.T) {
	const packets = 2400
	rng := rand.New(rand.NewSource(0x1A2))
	frames := make([][]byte, packets)
	orig := make([][]byte, packets)
	for i := range frames {
		n := rng.Intn(bufSize + 1) // 0 … 4160
		if i%97 == 0 {
			n = 0
		}
		frames[i] = make([]byte, n)
		rng.Read(frames[i])
		orig[i] = append([]byte(nil), frames[i]...)
	}
	for _, oracle := range []bool{false, true} {
		got := exchange(t, func(n *Network, pl *fault.Plan) {
			if oracle {
				n.VerifyIntact()
			}
			// About one packet in three damaged at each end on average,
			// so all four of clean, tx, rx and both occur in numbers.
			pl.SetLinkBER(0, 2e-4)
			pl.SetLinkBER(1, 2e-4)
			pl.CorruptNextOn(0, 40)
		}, frames...)
		var damaged, clean int
		for i, pk := range got {
			want := CRC8(pk.Payload) == CRC8(orig[i])
			if pk.CheckCRC() != want {
				t.Fatalf("oracle=%v packet %d (%d bytes): CheckCRC() = %v, an eager check says %v",
					oracle, i, len(orig[i]), !want, want)
			}
			if bytes.Equal(pk.Payload, orig[i]) != want {
				t.Fatalf("packet %d: CRC-8 missed (or invented) a difference the test can see", i)
			}
			if !bytes.Equal(frames[i], orig[i]) {
				t.Fatalf("packet %d: the sender's buffer was written", i)
			}
			if want {
				clean++
			} else {
				damaged++
			}
		}
		if damaged < packets/4 || clean < packets/4 {
			t.Fatalf("oracle=%v: %d damaged, %d clean of %d: the plan does not exercise both", oracle, damaged, clean, packets)
		}
	}
}

// The cases the sweep above only meets by chance, one by one.
func TestLazyCRCNamedCases(t *testing.T) {
	frame := func() []byte { return []byte("sixteen byte frm and then some more of it") }
	txEnd := func(_ *Network, pl *fault.Plan) { pl.CorruptNextOn(0, 1) }
	rxEnd := func(_ *Network, pl *fault.Plan) { pl.SetLinkBER(1, 1) }
	bothEnds := func(n *Network, pl *fault.Plan) { txEnd(n, pl); rxEnd(n, pl) }

	differs := func(a, b []byte) (n int) {
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name   string
		setup  func(*Network, *fault.Plan)
		flips  int // payload bytes that arrive changed
		passes bool
	}{
		{"no fault", func(*Network, *fault.Plan) {}, 0, true},
		{"tx end only", txEnd, 1, false},
		{"rx end only", rxEnd, 1, false},
		// The second flip must not re-materialise the CRC over bytes the
		// first already damaged: that CRC would match one flip.
		{"both ends", bothEnds, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sent := frame()
			pk := exchange(t, tc.setup, sent)[0]
			if got := differs(pk.Payload, frame()); got != tc.flips {
				t.Errorf("%d payload bytes arrived changed, want %d", got, tc.flips)
			}
			if pk.CheckCRC() != tc.passes {
				t.Errorf("CheckCRC() = %v, want %v", !tc.passes, tc.passes)
			}
			if tc.flips > 0 && pk.crc != CRC8(frame()) {
				t.Errorf("carried CRC %#x is not the undamaged payload's %#x", pk.crc, CRC8(frame()))
			}
			if !bytes.Equal(sent, frame()) {
				t.Error("the sender's buffer was written")
			}
		})
	}

	// A retransmit window resends the very buffer whose first copy was
	// damaged: the copy took the damage, the resend is intact and passes
	// without a CRC ever having been computed for it.
	t.Run("retransmission of a shared frame", func(t *testing.T) {
		shared := frame()
		got := exchange(t, txEnd, shared, shared)
		if got[0].CheckCRC() {
			t.Error("damaged first copy passed")
		}
		if !got[1].CheckCRC() || !got[1].intact || !bytes.Equal(got[1].Payload, frame()) {
			t.Errorf("retransmission arrived as %q (intact %v)", got[1].Payload, got[1].intact)
		}
		if &got[1].Payload[0] != &shared[0] {
			t.Error("the retransmission carries a copy, not the sender's buffer")
		}
	})

	// Nothing to flip in an empty payload, whatever the plan says.
	t.Run("zero-length payload", func(t *testing.T) {
		pk := exchange(t, bothEnds, []byte{})[0]
		if !pk.CheckCRC() || !pk.intact {
			t.Errorf("empty packet: CheckCRC() = %v, intact = %v", pk.CheckCRC(), pk.intact)
		}
	})

	// A Packet literal never went through inject, so nothing vouches for
	// it: it is checked in full against the CRC it carries (zero).
	t.Run("packet literal, never injected", func(t *testing.T) {
		data := frame()
		// For this CRC (zero initial value, no final XOR) a message
		// followed by its own CRC has CRC zero.
		selfChecking := append(data, CRC8(data))
		if !(&Packet{Payload: selfChecking}).CheckCRC() {
			t.Error("literal whose payload matches its (zero) CRC failed the check")
		}
		selfChecking[3] ^= 0x20
		if (&Packet{Payload: selfChecking}).CheckCRC() {
			t.Error("literal with a flipped bit passed: its payload was not read")
		}
	})
}

// What the lazy check cannot see on its own is a sender that writes into a
// buffer after injecting it — eagerly checked, that was a CRC error at the
// receiver. VerifyIntact turns it into a panic at the check.
func TestVerifyIntactCatchesWriteAfterInjection(t *testing.T) {
	scribbled := func(oracle bool) (pk *Packet) {
		frame := []byte("the fabric owns these bytes from Send on")
		pk = exchange(t, func(n *Network, _ *fault.Plan) {
			if oracle {
				n.VerifyIntact()
			}
		}, frame)[0]
		frame[7] ^= 0x01
		return pk
	}
	if !scribbled(false).CheckCRC() {
		t.Error("without the oracle an undamaged packet is never read, so this cannot fail")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "changed after injection") {
			t.Errorf("CheckCRC under VerifyIntact: recovered %q, want the write-after-injection panic", msg)
		}
	}()
	scribbled(true).CheckCRC()
}
