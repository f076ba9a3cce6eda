// Ring all-reduce: the bandwidth-bound variant. The ring moves 1/n-th
// blocks per round so every link carries payload every round.
package coll

// mod returns x mod n in [0, n).
func mod(x, n int) int {
	x %= n
	if x < 0 {
		x += n
	}
	return x
}

// blockRange returns the byte extent of ring block b when an L-byte
// vector of esz-byte elements is cut into n element-aligned blocks.
// Blocks may be empty when there are fewer elements than ranks.
func blockRange(l, esz, n, b int) (off, length int) {
	cnt := l / esz
	lo := b * cnt / n * esz
	hi := (b + 1) * cnt / n * esz
	return lo, hi - lo
}

// pipeBytes is the credit-window capacity of one channel — slots uncredited
// chunks of slotBytes each — rounded down to a multiple of align so reduce
// sub-pieces stay element-aligned. A ring round that ships more than this
// per block must interleave its send and receive in sub-rounds: two ranks
// that each post a full block before draining the other's (the n=2 case,
// where every rank is both its neighbor's sender and receiver) otherwise
// exhaust both windows with neither side ever reaching its receive.
func (c *Comm) pipeBytes(align int) int {
	pipe := slots * slotBytes
	pipe -= pipe % align
	if pipe < align {
		pipe = align
	}
	return pipe
}

// ringStep is one round of a ring algorithm: send goes to the right
// neighbor while recv fills from the left one. Blocks larger than the
// credit window are exchanged in interleaved sub-rounds (see pipeBytes); a
// block that fits is sent whole and then received. Either block may be
// empty (fewer elements than ranks), skipped by sender and receiver alike.
// fold, when set, makes recv the block the arriving one is reduced into:
// each piece lands in the rank's reduce scratch instead and fold(dst, piece)
// merges it into the matching piece dst of recv.
func (c *Comm) ringStep(p *simProc, align int, send, recv []byte, fold func(dst, piece []byte) error) error {
	right := (c.rank + 1) % c.g.n
	left := mod(c.rank-1, c.g.n)
	pipe := c.pipeBytes(align)
	for so := 0; so < len(send) || so < len(recv); so += pipe {
		if so < len(send) {
			if err := c.sendPayload(p, right, send[so:min(so+pipe, len(send))]); err != nil {
				return err
			}
		}
		if so < len(recv) {
			dst := recv[so:min(so+pipe, len(recv))]
			if fold == nil {
				if err := c.recvPayload(p, left, dst); err != nil {
					return err
				}
				continue
			}
			piece := c.reduceScratch(len(dst))
			if err := c.recvPayload(p, left, piece); err != nil {
				return err
			}
			if err := fold(dst, piece); err != nil {
				return err
			}
		}
	}
	return nil
}

// allReduceRing is n-1 reduce-scatter rounds followed by n-1 ring
// all-gather rounds over acc. In reduce-scatter round t, each rank sends
// block (rank-t) to its right neighbor and folds the arriving block
// (rank-t-1) from its left neighbor into acc, so afterwards rank r holds
// the fully reduced block (r+1) mod n; the all-gather then passes the
// reduced blocks around the ring.
func (c *Comm) allReduceRing(p *simProc, op Op, dt DType, acc []byte) error {
	n := c.g.n
	esz := dt.Size()
	fold := func(dst, piece []byte) error { return c.combine(p, op, dt, dst, piece) }
	for t := 0; t < n-1; t++ {
		soff, slen := blockRange(len(acc), esz, n, mod(c.rank-t, n))
		roff, rlen := blockRange(len(acc), esz, n, mod(c.rank-t-1, n))
		c.step("allreduce_ring_rs")
		if err := c.ringStep(p, esz, acc[soff:soff+slen], acc[roff:roff+rlen], fold); err != nil {
			return err
		}
	}
	for t := 0; t < n-1; t++ {
		soff, slen := blockRange(len(acc), esz, n, mod(c.rank+1-t, n))
		roff, rlen := blockRange(len(acc), esz, n, mod(c.rank-t, n))
		c.step("allreduce_ring_ag")
		if err := c.ringStep(p, esz, acc[soff:soff+slen], acc[roff:roff+rlen], nil); err != nil {
			return err
		}
	}
	return nil
}
