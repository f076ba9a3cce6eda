package xdr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	e := NewEncoder()
	e.PutUint32(0xDEADBEEF)
	if !bytes.Equal(e.Bytes(), []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Errorf("big-endian encoding wrong: % x", e.Bytes())
	}
	d := NewDecoder(e.Bytes())
	v, err := d.Uint32()
	if err != nil || v != 0xDEADBEEF {
		t.Errorf("decoded %#x, %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestSignedAndHyper(t *testing.T) {
	e := NewEncoder()
	e.PutInt32(-42)
	e.PutUint64(math.MaxUint64)
	d := NewDecoder(e.Bytes())
	if v, _ := d.Int32(); v != -42 {
		t.Errorf("Int32 = %d", v)
	}
	if v, _ := d.Uint64(); v != math.MaxUint64 {
		t.Errorf("Uint64 = %d", v)
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n < 9; n++ {
		e := NewEncoder()
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		e.PutOpaque(data)
		if e.Len()%4 != 0 {
			t.Errorf("opaque(%d): length %d not 4-aligned", n, e.Len())
		}
		want := 4 + (n+3)&^3
		if e.Len() != want {
			t.Errorf("opaque(%d): length %d, want %d", n, e.Len(), want)
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque(0)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("opaque(%d) round trip failed: %v %v", n, got, err)
		}
		if d.Remaining() != 0 {
			t.Errorf("opaque(%d): %d bytes left", n, d.Remaining())
		}
	}
}

func TestLengthLimits(t *testing.T) {
	e := NewEncoder()
	e.PutOpaque(make([]byte, 100))
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(50); err == nil {
		t.Error("oversized opaque accepted")
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); err != ErrShort {
		t.Errorf("short Uint32 = %v", err)
	}
	// Truncated opaque: claims 8 bytes, has 2.
	d = NewDecoder([]byte{0, 0, 0, 8, 1, 2})
	if _, err := d.Opaque(0); err == nil {
		t.Error("truncated opaque accepted")
	}
}

// Property: any mixed sequence of values round-trips exactly.
func TestMixedRoundTripProperty(t *testing.T) {
	f := func(a uint32, b int32, c uint64, blob []byte) bool {
		e := NewEncoder()
		e.PutUint32(a)
		e.PutInt32(b)
		e.PutUint64(c)
		e.PutOpaque(blob)
		d := NewDecoder(e.Bytes())
		ga, err := d.Uint32()
		if err != nil || ga != a {
			return false
		}
		gb, err := d.Int32()
		if err != nil || gb != b {
			return false
		}
		gc, err := d.Uint64()
		if err != nil || gc != c {
			return false
		}
		gblob, err := d.Opaque(1 << 21)
		return err == nil && bytes.Equal(gblob, blob) && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	h := CallHeader{XID: 777, Prog: 100005, Vers: 3, Proc: 12}
	e := EncodeCall(h)
	e.PutUint32(0xAB) // an argument
	gh, d, err := DecodeCall(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Errorf("header = %+v, want %+v", gh, h)
	}
	if arg, _ := d.Uint32(); arg != 0xAB {
		t.Errorf("arg = %#x", arg)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	e := EncodeReply(777, AcceptSuccess)
	e.PutOpaque([]byte("result"))
	xid, stat, d, err := DecodeReply(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if xid != 777 || stat != AcceptSuccess {
		t.Errorf("xid=%d stat=%d", xid, stat)
	}
	if b, _ := d.Opaque(0); string(b) != "result" {
		t.Errorf("result = %q", b)
	}
}

func TestDecodeCallRejectsReply(t *testing.T) {
	e := EncodeReply(1, AcceptSuccess)
	if _, _, err := DecodeCall(e.Bytes()); err == nil {
		t.Error("DecodeCall accepted a reply message")
	}
}

func TestDecodeReplyRejectsCall(t *testing.T) {
	e := EncodeCall(CallHeader{XID: 1})
	if _, _, _, err := DecodeReply(e.Bytes()); err == nil {
		t.Error("DecodeReply accepted a call message")
	}
}

// headerWords are the values every CallHeader field and reply word is
// pinned at: both ends of the 32-bit range and the bits between.
var headerWords = []uint32{0, 1, 1 << 31, math.MaxUint32}

// TestCallHeaderFullWidth round-trips a call header with each field at
// each of headerWords, the other fields held at distinct values, so a
// field truncated, sign-extended or written to its neighbour's slot shows.
func TestCallHeaderFullWidth(t *testing.T) {
	for field := 0; field < 4; field++ {
		for _, v := range headerWords {
			w := [4]uint32{0x11111111, 0x22222222, 0x33333333, 0x44444444}
			w[field] = v
			h := CallHeader{XID: w[0], Prog: w[1], Vers: w[2], Proc: w[3]}
			got, d, err := DecodeCall(EncodeCall(h).Bytes())
			if err != nil || got != h || d.Remaining() != 0 {
				t.Errorf("%+v decoded as %+v (%v)", h, got, err)
			}
		}
	}
}

// TestReplyFullWidth round-trips EncodeReply's xid and accept status at
// each of headerWords.
func TestReplyFullWidth(t *testing.T) {
	for _, xid := range headerWords {
		for _, stat := range headerWords {
			gx, gs, d, err := DecodeReply(EncodeReply(xid, stat).Bytes())
			if err != nil || gx != xid || gs != stat || d.Remaining() != 0 {
				t.Errorf("reply (%#x, %#x) decoded as (%#x, %#x): %v", xid, stat, gx, gs, err)
			}
		}
	}
}

// rpcSeeds are the fuzz corpus of the message decoders: the messages the
// round-trip and rejection tests build, and every truncation of each.
func rpcSeeds() [][]byte {
	call := EncodeCall(CallHeader{XID: 777, Prog: 100005, Vers: 3, Proc: 12})
	call.PutUint32(0xAB)
	reply := EncodeReply(777, AcceptSuccess)
	reply.PutOpaque([]byte("result"))
	var seeds [][]byte
	for _, msg := range [][]byte{
		call.Bytes(), reply.Bytes(),
		EncodeReply(1, AcceptSuccess).Bytes(), EncodeCall(CallHeader{XID: 1}).Bytes(),
	} {
		for n := 0; n <= len(msg); n++ {
			seeds = append(seeds, msg[:n])
		}
	}
	return seeds
}

// FuzzDecodeCall feeds DecodeCall arbitrary bytes: it must not panic, and
// a header it accepts must survive re-encoding and decoding unchanged.
func FuzzDecodeCall(f *testing.F) {
	for _, s := range rpcSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, _, err := DecodeCall(b)
		if err != nil {
			return
		}
		again, _, err := DecodeCall(EncodeCall(h).Bytes())
		if err != nil || again != h {
			t.Errorf("header %+v re-decoded as %+v (%v)", h, again, err)
		}
	})
}

// FuzzDecodeReply feeds DecodeReply arbitrary bytes: it must not panic,
// and an xid and accept status it accepts must survive re-encoding and
// decoding unchanged.
func FuzzDecodeReply(f *testing.F) {
	for _, s := range rpcSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xid, stat, _, err := DecodeReply(b)
		if err != nil {
			return
		}
		gx, gs, _, err := DecodeReply(EncodeReply(xid, stat).Bytes())
		if err != nil || gx != xid || gs != stat {
			t.Errorf("reply (%#x, %#x) re-decoded as (%#x, %#x): %v", xid, stat, gx, gs, err)
		}
	})
}
