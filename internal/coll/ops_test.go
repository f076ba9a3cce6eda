package coll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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

func refFloat64(f func(a, b float64) float64) refCombine {
	return func(dst, src []byte) error {
		if err := checkVectors(dst, src, 8); err != nil {
			return err
		}
		for i := 0; i < len(dst); i += 8 {
			a := math.Float64frombits(binary.BigEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.BigEndian.Uint64(src[i:]))
			binary.BigEndian.PutUint64(dst[i:], math.Float64bits(f(a, b)))
		}
		return nil
	}
}

var refCombines = map[opKey]refCombine{
	{OpSum, Int32}: refInt32(func(a, b int32) int32 { return a + b }),
	{OpMin, Int32}: refInt32(func(a, b int32) int32 {
		if b < a {
			return b
		}
		return a
	}),
	{OpMax, Int32}: refInt32(func(a, b int32) int32 {
		if b > a {
			return b
		}
		return a
	}),
	{OpSum, Float64}: refFloat64(func(a, b float64) float64 { return a + b }),
	{OpMin, Float64}: refFloat64(func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	}),
	{OpMax, Float64}: refFloat64(func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	}),
}

// Element values a seeded vector draws from besides random words: int32
// wraparound at both ends, and the float64 values whose ordering is not a
// total order — NaNs (quiet, signalling, negative, with payloads), signed
// zeros, infinities.
var (
	int32Edges   = []uint32{0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0x80000001, 0x7FFFFFFE}
	float64Edges = []uint64{
		math.Float64bits(math.NaN()), 0x7FF0000000000001, 0xFFF8000000000000, 0x7FF8DEADBEEF0001,
		0, 1 << 63, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64), 1, // smallest denormal
		math.Float64bits(1), math.Float64bits(-1),
	}
)

// edgeVector returns a seeded encoded vector of elems esz-byte elements,
// about a third of them drawn from edges.
func edgeVector(seed uint64, elems, esz int, edges []uint64) []byte {
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	b := make([]byte, elems*esz)
	for i := 0; i < elems; i++ {
		v := next()
		if v%3 == 0 {
			v = edges[next()%uint64(len(edges))]
		}
		if esz == 4 {
			binary.BigEndian.PutUint32(b[i*4:], uint32(v))
		} else {
			binary.BigEndian.PutUint64(b[i*8:], v)
		}
	}
	return b
}

func vectorFor(dt DType, seed uint64, elems int) []byte {
	if dt == Int32 {
		edges := make([]uint64, len(int32Edges))
		for i, e := range int32Edges {
			edges[i] = uint64(e)
		}
		return edgeVector(seed, elems, 4, edges)
	}
	return edgeVector(seed, elems, 8, float64Edges)
}

// TestBuiltinCombinesMatchReference holds every built-in (op, dtype) to the
// closure form byte for byte, NaN payloads and zero signs included, over
// seeded vectors from empty to 16 K elements, and to the same length errors.
func TestBuiltinCombinesMatchReference(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 7, 16, 100, 1023, 4096, 16 << 10}
	for key, ref := range refCombines {
		fn := func(dst, src []byte) error { return fold(key.op, key.dt, dst, src) }
		for i, elems := range lengths {
			for seed := uint64(1); seed <= 3; seed++ {
				dst := vectorFor(key.dt, seed*100+uint64(i), elems)
				src := vectorFor(key.dt, seed*100+uint64(i)+50, elems)
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
	for _, key := range []opKey{{OpMax + 1, Int32}, {OpSum - 1, Float64}, {OpSum, Float64 + 1}} {
		if err := fold(key.op, key.dt, nil, nil); err == nil {
			t.Errorf("%v/%v: folded, want no combine function", key.op, key.dt)
		}
	}
}

// BenchmarkCombine64K folds one 64 KB vector into another with each
// built-in: the host cost of the element-wise pass a ring all-reduce makes
// over its whole vector.
func BenchmarkCombine64K(b *testing.B) {
	for _, dt := range []DType{Int32, Float64} {
		for _, op := range []Op{OpSum, OpMin, OpMax} {
			elems := (64 << 10) / dt.Size()
			dst, src := vectorFor(dt, 1, elems), vectorFor(dt, 2, elems)
			b.Run(fmt.Sprintf("%v_%v", op, dt), func(b *testing.B) {
				b.SetBytes(64 << 10)
				for i := 0; i < b.N; i++ {
					if err := fold(op, dt, dst, src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
