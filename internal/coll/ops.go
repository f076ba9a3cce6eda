// Reduction operators. Vectors on the wire are XDR-encoded (big-endian,
// RFC 4506) via the repo's xdr package, so reduction payloads are
// byte-identical regardless of which algorithm or route produced them —
// the property the cross-algorithm tests pin down.
package coll

import (
	"encoding/binary"
	"fmt"

	"repro/internal/xdr"
)

// Op names a reduction operator.
type Op int

const (
	OpSum Op = iota
	OpMax
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// DType names an element type for reduction vectors.
type DType int

const (
	Int32 DType = iota
)

func (d DType) String() string {
	switch d {
	case Int32:
		return "int32"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Size returns the encoded size of one element in bytes.
func (d DType) Size() int {
	switch d {
	case Int32:
		return 4
	default:
		return 0
	}
}

// fold folds the XDR-encoded vector src element-wise into dst (dst = dst ⊕
// src) with one of the two built-in combines: sum or max over int32. Both
// slices have equal length, a multiple of the element size.
func fold(op Op, dt DType, dst, src []byte) error {
	switch {
	case op < OpSum || op > OpMax:
	case dt == Int32:
		return foldInt32(op, dst, src)
	}
	return fmt.Errorf("coll: no combine function for %v over %v", op, dt)
}

// foldInt32 works on the encoded vectors in place: an XDR int32 is a
// big-endian word, so there is nothing to decode into. It is one loop per
// operator, chosen once per call; each step takes word-sized subslices,
// which the compiler bounds-checks once instead of at every access. max
// replaces dst's element only when src's compares strictly above it.
func foldInt32(op Op, dst, src []byte) error {
	if err := checkVectors(dst, src, 4); err != nil {
		return err
	}
	be := binary.BigEndian
	switch op {
	case OpSum:
		for i := 0; i < len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			be.PutUint32(d, be.Uint32(d)+be.Uint32(s))
		}
	case OpMax:
		for i := 0; i < len(dst); i += 4 {
			d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
			if int32(be.Uint32(s)) > int32(be.Uint32(d)) {
				copy(d, s)
			}
		}
	}
	return nil
}

// checkVector validates a reduction vector against the element type.
func checkVector(dt DType, b []byte) error {
	sz := dt.Size()
	if sz == 0 {
		return fmt.Errorf("coll: unknown element type %v", dt)
	}
	if len(b)%sz != 0 {
		return fmt.Errorf("coll: %d-byte vector is not a whole number of %v elements", len(b), dt)
	}
	return nil
}

// checkVectors validates two encoded vectors of esz-byte elements for an
// element-wise fold.
func checkVectors(dst, src []byte, esz int) error {
	if len(dst)%esz != 0 {
		return fmt.Errorf("coll: vector length %d not a multiple of %d", len(dst), esz)
	}
	if len(dst) != len(src) {
		return fmt.Errorf("coll: combine length mismatch: %d vs %d bytes", len(dst), len(src))
	}
	return nil
}

// EncodeInt32s XDR-encodes a vector of int32 (no length prefix: the
// communicator geometry fixes the count).
func EncodeInt32s(v []int32) []byte {
	e := xdr.NewEncoder()
	for _, x := range v {
		e.PutInt32(x)
	}
	return e.Bytes()
}

// DecodeInt32s decodes a vector encoded by EncodeInt32s.
func DecodeInt32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("coll: int32 vector length %d not a multiple of 4", len(b))
	}
	d := xdr.NewDecoder(b)
	v := make([]int32, len(b)/4)
	for i := range v {
		x, err := d.Int32()
		if err != nil {
			return nil, err
		}
		v[i] = x
	}
	return v, nil
}

// combine folds src into dst with the (op, dt) operator, charging the
// element-wise pass at library copy rate (the host reads both vectors and
// writes one; on this platform that is memcpy-bound, §5.4).
func (c *Comm) combine(p *simProc, op Op, dt DType, dst, src []byte) error {
	if err := fold(op, dt, dst, src); err != nil {
		return err
	}
	if len(dst) > 0 {
		c.proc.Node.CPU.Bcopy(p, len(dst))
	}
	return nil
}
