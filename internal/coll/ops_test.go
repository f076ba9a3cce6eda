package coll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// The reference combines: one function-value call per element, decoded to
// the Go type and encoded back — the form the built-ins had before they
// became one loop per operator. Kept here only to hold the loops to it.

type refCombine func(dst, src []byte) error

type opKey struct {
	op Op
	dt DType
}

func refInt32(f func(a, b int32) int32) refCombine {
	return func(dst, src []byte) error {
		if err := checkVectors(dst, src, 4); err != nil {
			return err
		}
		for i := 0; i < len(dst); i += 4 {
			a := int32(binary.BigEndian.Uint32(dst[i:]))
			b := int32(binary.BigEndian.Uint32(src[i:]))
			binary.BigEndian.PutUint32(dst[i:], uint32(f(a, b)))
		}
		return nil
	}
}

var refCombines = map[opKey]refCombine{
	{OpSum, Int32}: refInt32(func(a, b int32) int32 { return a + b }),
	{OpMax, Int32}: refInt32(func(a, b int32) int32 {
		if b > a {
			return b
		}
		return a
	}),
}

// int32Edges are the element values a seeded vector draws from besides
// random words: int32 wraparound at both ends.
var int32Edges = []uint32{0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0x80000001, 0x7FFFFFFE}

// vectorFor returns a seeded encoded int32 vector of elems elements, about
// a third of them drawn from int32Edges.
func vectorFor(seed uint64, elems int) []byte {
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	b := make([]byte, elems*4)
	for i := 0; i < elems; i++ {
		v := next()
		if v%3 == 0 {
			v = uint64(int32Edges[next()%uint64(len(int32Edges))])
		}
		binary.BigEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

// TestBuiltinCombinesMatchReference holds every built-in (op, dtype) to the
// closure form byte for byte over seeded vectors from empty to 16 K elements, and to the same length errors.
func TestBuiltinCombinesMatchReference(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 7, 16, 100, 1023, 4096, 16 << 10}
	for key, ref := range refCombines {
		fn := func(dst, src []byte) error { return fold(key.op, key.dt, dst, src) }
		for i, elems := range lengths {
			for seed := uint64(1); seed <= 3; seed++ {
				dst := vectorFor(seed*100+uint64(i), elems)
				src := vectorFor(seed*100+uint64(i)+50, elems)
				want := append([]byte(nil), dst...)
				if err := ref(want, src); err != nil {
					t.Fatal(err)
				}
				if err := fn(dst, src); err != nil {
					t.Fatalf("%v/%v, %d elements: %v", key.op, key.dt, elems, err)
				}
				if !bytes.Equal(dst, want) {
					t.Errorf("%v/%v, %d elements, seed %d: differs from the reference", key.op, key.dt, elems, seed)
				}
			}
		}
		esz := key.dt.Size()
		for _, tc := range []struct{ dst, src int }{{esz + 1, esz + 1}, {esz, 2 * esz}} {
			gotErr := fn(make([]byte, tc.dst), make([]byte, tc.src))
			wantErr := ref(make([]byte, tc.dst), make([]byte, tc.src))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%v/%v on %d/%d bytes: error %v, want %v", key.op, key.dt, tc.dst, tc.src, gotErr, wantErr)
			}
		}
	}
	for _, key := range []opKey{{OpMax + 1, Int32}, {OpSum - 1, Int32}, {OpSum, Int32 + 1}} {
		if err := fold(key.op, key.dt, nil, nil); err == nil {
			t.Errorf("%v/%v: folded, want no combine function", key.op, key.dt)
		}
	}
}

// BenchmarkCombine64K folds one 64 KB vector into another with each
// built-in: the host cost of the element-wise pass a ring all-reduce makes
// over its whole vector.
func BenchmarkCombine64K(b *testing.B) {
	for _, op := range []Op{OpSum, OpMax} {
		elems := (64 << 10) / Int32.Size()
		dst, src := vectorFor(1, elems), vectorFor(2, elems)
		b.Run(fmt.Sprintf("%v_%v", op, Int32), func(b *testing.B) {
			b.SetBytes(64 << 10)
			for i := 0; i < b.N; i++ {
				if err := fold(op, Int32, dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
