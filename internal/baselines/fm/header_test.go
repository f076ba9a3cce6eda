package fm

import (
	"bytes"
	"reflect"
	"testing"
)

// TestHeaderFullWidth sets every header field in turn to 0, 1 and the
// largest value its type holds, the others to distinct values, and
// requires the wire form to be headerBytes bytes that decode to the same
// header: no field is narrower on the wire than in the struct.
func TestHeaderFullWidth(t *testing.T) {
	base := header{Typ: 0x5A, MsgID: 0x01020304, Total: 0x05060708, Index: 0x090A}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		top := uint64(1)<<(typ.Field(i).Type.Bits()-1)<<1 - 1
		for _, v := range []uint64{0, 1, top} {
			h := base
			reflect.ValueOf(&h).Elem().Field(i).SetUint(v)
			wire := h.appendTo(nil)
			if len(wire) != headerBytes {
				t.Fatalf("%s=%#x: %d wire bytes, want %d", typ.Field(i).Name, v, len(wire), headerBytes)
			}
			if got, ok := decodeHeader(wire); !ok || got != h {
				t.Errorf("%s=%#x: decoded %+v, %v; want %+v", typ.Field(i).Name, v, got, ok, h)
			}
		}
	}
}

// FuzzDecodeHeader: whatever the bytes, decodeHeader either refuses them
// (too short, or the pad byte set) or returns a header whose wire form is
// exactly the bytes it read. Seeded with the packets a two-packet message
// and a credit return put on the wire.
func FuzzDecodeHeader(f *testing.F) {
	payload := bytes.Repeat([]byte{0xC3}, PayloadBytes)
	f.Add(append(header{Typ: ptData, MsgID: 7, Total: PayloadBytes + 4}.appendTo(nil), payload...))
	f.Add(append(header{Typ: ptData, MsgID: 7, Total: PayloadBytes + 4, Index: 1}.appendTo(nil), 1, 2, 3, 4))
	f.Add(header{Typ: ptCredit}.appendTo(nil))
	f.Add([]byte{ptData, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, ok := decodeHeader(b)
		if len(b) < headerBytes || b[1] != 0 {
			if ok {
				t.Fatalf("decoded % x: %+v", b, h)
			}
			return
		}
		if !ok {
			t.Fatalf("refused % x", b)
		}
		if wire := h.appendTo(nil); !bytes.Equal(wire, b[:headerBytes]) {
			t.Fatalf("re-encoded % x, read % x", wire, b[:headerBytes])
		}
	})
}
