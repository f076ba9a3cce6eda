package rpc

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/xdr"
)

// TestReqTrailerFullWidth sets each request-trailer field in turn to 0, 1
// and the largest value it may hold (the reply tag stops below
// deadlineFlag; a deadline is any nonzero time, 0 meaning none), the
// others to distinct values, and requires the wire form, followed by a
// message, to decode to the same trailer and message: 8 bytes without a
// deadline, 16 with one.
func TestReqTrailerFullWidth(t *testing.T) {
	base := reqTrailer{node: 0x01020304, replyTag: 0x05060708, deadline: 0x090A0B0C0D0E0F10}
	msg := []byte{0xAA, 0xBB, 0xCC}
	vary := []struct {
		name string
		set  func(*reqTrailer, int)
	}{
		{"node", func(r *reqTrailer, i int) { r.node = []uint32{0, 1, math.MaxUint32}[i] }},
		{"replyTag", func(r *reqTrailer, i int) { r.replyTag = []uint32{0, 1, deadlineFlag - 1}[i] }},
		{"deadline", func(r *reqTrailer, i int) { r.deadline = []sim.Time{0, 1, math.MaxInt64}[i] }},
	}
	for _, f := range vary {
		for i := 0; i < 3; i++ {
			tr := base
			f.set(&tr, i)
			want := 16
			if tr.deadline == 0 {
				want = 8
			}
			wire := append(tr.appendTo(nil), msg...)
			if len(wire) != want+len(msg) {
				t.Fatalf("%s #%d: %d trailer bytes, want %d", f.name, i, len(wire)-len(msg), want)
			}
			got, rest, ok := decodeReqTrailer(wire)
			if !ok || got != tr || !bytes.Equal(rest, msg) {
				t.Errorf("%s #%d: decoded %+v %x %v; want %+v %x", f.name, i, got, rest, ok, tr, msg)
			}
		}
	}
}

// TestHintFullWidth sets each load-hint word in turn to 0, 1 and the
// largest 32-bit value, the others to distinct values, and requires the
// 16-byte trailer ahead of a reply to decode to the same sample and leave
// the reply whole.
func TestHintFullWidth(t *testing.T) {
	reply := xdr.EncodeReply(9, xdr.AcceptSuccess).Bytes()
	for f := 0; f < 3; f++ {
		for _, v := range []uint32{0, 1, math.MaxUint32} {
			w := [3]uint32{0x01020304, 0x05060708, 0x090A0B0C}
			w[f] = v
			wire := append(appendHint(nil, w[0], w[1], w[2]), reply...)
			if len(wire) != hintBytes+len(reply) {
				t.Fatalf("word %d=%#x: %d trailer bytes, want %d", f, v, len(wire)-len(reply), hintBytes)
			}
			want := LoadHint{Depth: int(w[0]), Sheds: int64(w[1]), Served: int64(w[2])}
			h, rest, ok := decodeHint(wire)
			if !ok || h != want || !bytes.Equal(rest, reply) {
				t.Errorf("word %d=%#x: decoded %+v %x %v; want %+v %x", f, v, h, rest, ok, want, reply)
			}
		}
	}
	if _, rest, ok := decodeHint(reply); ok || !bytes.Equal(rest, reply) {
		t.Errorf("a plain reply decoded as hinted (%v) or lost bytes (%x)", ok, rest)
	}
}

// slotPayload strips a slot frame's length word and sequence flag,
// leaving what slotMessage hands the decoders.
func slotPayload(frame []byte) []byte { return frame[4 : len(frame)-4] }

// FuzzDecodeReqTrailer: whatever the bytes, decodeReqTrailer either
// refuses them or returns a trailer whose wire form is exactly the bytes
// ahead of the message it returns. Seeded with the legacy procAdd request
// the hint tests pin and the same call with the deadline the deadline
// tests send.
func FuzzDecodeReqTrailer(f *testing.F) {
	add := slotPayload(expectedAddCall(0, 0, 2, 2))
	f.Add(add)
	f.Add(append(reqTrailer{replyTag: repTagBase, deadline: sim.Millisecond}.appendTo(nil), add[8:]...))
	f.Add([]byte{0, 0, 0, 0, 0x80, 0, 0xF1, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, msg, ok := decodeReqTrailer(b)
		if !ok {
			return
		}
		n := len(b) - len(msg)
		if wire := tr.appendTo(nil); !bytes.Equal(wire, b[:n]) || !bytes.Equal(msg, b[n:]) {
			t.Fatalf("re-encoded % x, read % x", wire, b[:n])
		}
	})
}

// FuzzDecodeHint: whatever the bytes, decodeHint either leaves them whole
// or returns a sample whose trailer is exactly the bytes ahead of the
// reply it returns. Seeded with the hinted and plain procAdd replies the
// hint tests pin.
func FuzzDecodeHint(f *testing.F) {
	rep := xdr.EncodeReply(2, xdr.AcceptSuccess)
	rep.PutInt32(42)
	f.Add(append(appendHint(nil, 0, 0, 2), rep.Bytes()...))
	f.Add(rep.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		h, rest, ok := decodeHint(b)
		if !ok {
			if !bytes.Equal(rest, b) {
				t.Fatalf("unhinted reply % x came back as % x", b, rest)
			}
			return
		}
		wire := appendHint(nil, uint32(h.Depth), uint32(h.Sheds), uint32(h.Served))
		if !bytes.Equal(wire, b[:hintBytes]) || !bytes.Equal(rest, b[hintBytes:]) {
			t.Fatalf("re-encoded % x, read % x", wire, b[:hintBytes])
		}
	})
}

// TestVRPCMalformedTrailerConsumed: a request too short for the trailer
// that names its reply window cannot be answered; the server consumes it
// and serves the next call on the slot. Reading the trailer out of it
// used to panic the server.
func TestVRPCMalformedTrailerConsumed(t *testing.T) {
	vrpcSetup(t, func(p *sim.Proc, c *Client, srv *Server) {
		if err := sendFramed(p, c.proc, c.src, c.dest, []byte{1, 2, 3}, &c.seq, nil); err != nil {
			t.Fatal(err)
		}
		var sum int32
		err := c.Call(p, progTest, versTest, procAdd,
			func(e *xdr.Encoder) { e.PutInt32(40); e.PutInt32(2) },
			func(d *xdr.Decoder) error { v, err := d.Int32(); sum = v; return err })
		if err != nil || sum != 42 {
			t.Errorf("call after a malformed request: err=%v sum=%d", err, sum)
		}
		if srv.Calls != 1 {
			t.Errorf("server served %d calls, want 1", srv.Calls)
		}
	})
}
