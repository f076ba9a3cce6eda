// Package myrinet models the Myrinet fabric: point-to-point links at
// 1.28 Gb/s per direction, 8-port cut-through crossbar switches, source
// routing with per-hop header stripping, hardware CRC-8 generation and
// checking, and in-order delivery (§3 of the paper).
package myrinet

import "encoding/binary"

// CRC-8 with the ATM HEC polynomial p = x^8+x^2+x+1 (0x07), the generator
// used by Myrinet's link-level packet check, over the packet payload
// (header + data): appended at injection, verified at the sink. The link
// hardware does both for free, and so does the simulator for every packet
// nothing damaged — its payload is immutable from injection on, so the
// check holds by construction and no byte is read (Packet.CheckCRC). The
// real CRC-8 is computed for the packets a fault touched, from the bytes
// as they were before the damage, and for all of them under
// Network.VerifyIntact; the kernel works a 64-bit word at a time.
//
// A message is a polynomial M(x) over GF(2), first byte highest, and its
// CRC is M(x)·x^8 mod p. Because p is sparse, x^8 ≡ x^2+x+1 (mod p), and
// squaring is linear over GF(2), so
//
//	x^64  = (x^8)^8  ≡ x^16+x^8+1
//	x^128 = (x^8)^16 ≡ x^32+x^16+1
//
// which turns "append eight more bytes" — multiply the running remainder
// by x^64 and add the next word — into three shifts and XORs, with the few
// bits that overflow the 64-bit register folded back in by the same
// identity. The register holds a value merely congruent to M(x), not the
// reduced remainder; the byte table does the one real reduction at the end
// and absorbs the unaligned tail. Two registers over alternating words
// keep two dependency chains in flight.
var crcTable [256]byte

func init() {
	const poly = 0x07
	for i := 0; i < 256; i++ {
		c := byte(i)
		for b := 0; b < 8; b++ {
			if c&0x80 != 0 {
				c = c<<1 ^ poly
			} else {
				c <<= 1
			}
		}
		crcTable[i] = c
	}
}

// mulX64 returns a 64-bit polynomial congruent to s·x^64 mod p.
func mulX64(s uint64) uint64 {
	hi := s>>56 ^ s>>48 // what s<<8 and s<<16 push past bit 63
	return s ^ s<<8 ^ s<<16 ^ hi ^ hi<<8 ^ hi<<16
}

// mulX128 returns a 64-bit polynomial congruent to s·x^128 mod p.
func mulX128(s uint64) uint64 {
	hi := s>>48 ^ s>>32 // what s<<16 and s<<32 push past bit 63; ·x^64 again
	return s ^ s<<16 ^ s<<32 ^ hi ^ hi<<8 ^ hi<<16
}

// CRC8 returns the CRC-8 of data.
func CRC8(data []byte) byte {
	var a, b uint64
	for len(data) >= 16 {
		a = mulX128(a) ^ binary.BigEndian.Uint64(data)
		b = mulX128(b) ^ binary.BigEndian.Uint64(data[8:])
		data = data[16:]
	}
	s := mulX64(a) ^ b
	if len(data) >= 8 {
		s = mulX64(s) ^ binary.BigEndian.Uint64(data)
		data = data[8:]
	}
	var c byte
	for shift := 56; shift >= 0; shift -= 8 {
		c = crcTable[c^byte(s>>shift)]
	}
	for _, d := range data {
		c = crcTable[c^d]
	}
	return c
}
