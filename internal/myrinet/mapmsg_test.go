package myrinet

import (
	"bytes"
	"math"
	"testing"
)

// Every mapping message survives encoding and decoding over each field's
// whole width: all 256 type bytes, and sequence numbers and NIC ids at
// both ends of the uint32 range and across the sign bit.
func TestMapMsgRoundTrip(t *testing.T) {
	wide := []uint32{0, 1, 1 << 31, math.MaxUint32}
	for typ := 0; typ <= math.MaxUint8; typ++ {
		for _, seq := range wide {
			for _, id := range wide {
				gt, gs, gi, ok := decodeMapMsg(encodeMapMsg(byte(typ), seq, id))
				if !ok || gt != byte(typ) || gs != seq || gi != id {
					t.Errorf("(%#x, %#x, %#x) decoded as (%#x, %#x, %#x, %v)", typ, seq, id, gt, gs, gi, ok)
				}
			}
		}
	}

	msg := encodeMapMsg(mapProbe, 7, 3)
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"one byte short", msg[:mapMsgSize-1]},
		{"one byte long", append(append([]byte(nil), msg...), 0)},
		{"wrong magic", append([]byte{mapMagic + 1}, msg[1:]...)},
	} {
		if _, _, _, ok := decodeMapMsg(tc.b); ok {
			t.Errorf("%s: % x decoded", tc.name, tc.b)
		}
	}
}

// Whatever bytes arrive as a mapping message, decoding must not panic,
// and a message it accepts must re-encode to exactly the bytes it came
// from: the codec has no slack a forged probe could hide in.
func FuzzDecodeMapMsg(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{mapMagic})
	f.Add(encodeMapMsg(mapProbe, 0, 0))
	f.Add(encodeMapMsg(mapReply, 1<<31, math.MaxUint32))
	f.Add(append(encodeMapMsg(mapReply, 1, 1), 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, seq, id, ok := decodeMapMsg(b)
		if !ok {
			return
		}
		if again := encodeMapMsg(typ, seq, id); !bytes.Equal(again, b) {
			t.Errorf("% x decoded as (%#x, %#x, %#x), which re-encodes as % x", b, typ, seq, id, again)
		}
	})
}
