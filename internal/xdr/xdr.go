// Package xdr implements the External Data Representation standard
// (RFC 1832 / RFC 4506) used by SunRPC. vRPC (§5.4) keeps full wire
// compatibility with existing SunRPC implementations, so the encoder and
// decoder here are real: four-byte alignment, big-endian integers, fixed
// and length-prefixed opaque data.
package xdr

import (
	"errors"
	"fmt"
)

// Errors returned by the decoder.
var (
	ErrShort    = errors.New("xdr: buffer too short")
	ErrBadValue = errors.New("xdr: invalid value on wire")
	ErrTooLong  = errors.New("xdr: length exceeds maximum")
)

// Encoder serializes values into an XDR byte stream.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

// PutUint32 appends a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutInt32 appends a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 appends a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) PutUint64(v uint64) {
	e.PutUint32(uint32(v >> 32))
	e.PutUint32(uint32(v))
}

// PutFixedOpaque appends opaque bytes without a length prefix, padded to a
// four-byte boundary.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for len(e.buf)%4 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// PutOpaque appends variable-length opaque data: length then padded bytes.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// Decoder reads values from an XDR byte stream.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 reads a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShort
	}
	v := uint32(d.buf[d.off])<<24 | uint32(d.buf[d.off+1])<<16 |
		uint32(d.buf[d.off+2])<<8 | uint32(d.buf[d.off+3])
	d.off += 4
	return v, nil
}

// Int32 reads a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 reads an XDR unsigned hyper.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// FixedOpaque reads n opaque bytes plus padding.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	padded := (n + 3) &^ 3
	if d.Remaining() < padded {
		return nil, ErrShort
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+n])
	d.off += padded
	return out, nil
}

// Opaque reads variable-length opaque data, enforcing max (<=0 = 1 MB).
func (d *Decoder) Opaque(max int) ([]byte, error) {
	if max <= 0 {
		max = 1 << 20
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLong, n, max)
	}
	return d.FixedOpaque(int(n))
}
