// Ring and chain algorithms: bandwidth-bound variants. The ring moves
// 1/n-th blocks per round so every link carries payload every round; the
// broadcast chain pipelines slot-sized chunks down the rank order so the
// fill latency is paid once, not per byte.
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

// pipeBytes is the credit-window capacity of one channel — Slots uncredited
// chunks of SlotBytes each — rounded down to a multiple of align so reduce
// sub-pieces stay element-aligned. A ring round that ships more than this
// per block must interleave its send and receive in sub-rounds: two ranks
// that each post a full block before draining the other's (the n=2 case,
// where every rank is both its neighbor's sender and receiver) otherwise
// exhaust both windows with neither side ever reaching its receive.
func (c *Comm) pipeBytes(align int) int {
	pipe := c.g.opts.Slots * c.g.opts.SlotBytes
	if align > 1 {
		pipe -= pipe % align
		if pipe < align {
			pipe = align
		}
	}
	return pipe
}

// bcastChain pipelines buf down the chain root → root+1 → … → root-1,
// one slot-sized chunk at a time: while a rank forwards chunk k, chunk
// k+1 is already arriving behind it.
func (c *Comm) bcastChain(p *simProc, buf []byte, root int) error {
	n := c.g.n
	pos := mod(c.rank-root, n)
	next := (c.rank + 1) % n
	prev := mod(c.rank-1, n)
	chunk := c.g.opts.SlotBytes
	for off := 0; off < len(buf); off += chunk {
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if pos > 0 {
			c.step("bcast_chain_recv")
			if err := c.recvPayload(p, prev, buf[off:end]); err != nil {
				return err
			}
		}
		if pos < n-1 {
			c.step("bcast_chain_send")
			if err := c.sendPayload(p, next, buf[off:end]); err != nil {
				return err
			}
		}
	}
	return nil
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

// reduceScatterRing runs the n-1 reduce-scatter rounds of the ring
// algorithm over acc: in round t, each rank sends block (rank-t) to its
// right neighbor and folds the arriving block (rank-t-1) from its left
// neighbor into acc. Afterwards rank r holds the fully reduced block
// (r+1) mod n.
func (c *Comm) reduceScatterRing(p *simProc, op Op, dt DType, acc []byte) error {
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
	return nil
}

// allReduceRing is reduce-scatter followed by a ring all-gather of the
// reduced blocks.
func (c *Comm) allReduceRing(p *simProc, op Op, dt DType, acc []byte) error {
	n := c.g.n
	esz := dt.Size()
	if err := c.reduceScatterRing(p, op, dt, acc); err != nil {
		return err
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

// reduceRing is reduce-scatter followed by a direct gather of the
// reduced blocks to root: rank r owns block (r+1) mod n and ships it
// straight to the root's result buffer.
func (c *Comm) reduceRing(p *simProc, op Op, dt DType, acc []byte, root int) error {
	n := c.g.n
	esz := dt.Size()
	if err := c.reduceScatterRing(p, op, dt, acc); err != nil {
		return err
	}
	own := (c.rank + 1) % n
	ooff, olen := blockRange(len(acc), esz, n, own)
	if c.rank != root {
		c.step("reduce_ring_gather")
		if olen > 0 {
			return c.sendPayload(p, root, acc[ooff:ooff+olen])
		}
		return nil
	}
	for s := 0; s < n; s++ {
		if s == root {
			continue
		}
		b := (s + 1) % n
		boff, blen := blockRange(len(acc), esz, n, b)
		c.step("reduce_ring_gather")
		if blen > 0 {
			if err := c.recvPayload(p, s, acc[boff:boff+blen]); err != nil {
				return err
			}
		}
	}
	return nil
}

// allGatherRing rotates blocks around the ring: in round t each rank
// forwards the block it received in round t-1 (starting from its own),
// so after n-1 rounds everyone holds all n blocks. Blocks here are the
// ranks' equal-size contributions, laid out in rank order in out.
func (c *Comm) allGatherRing(p *simProc, in, out []byte) error {
	n := c.g.n
	blk := len(in)
	copy(out[c.rank*blk:], in)
	for t := 0; t < n-1; t++ {
		sb := mod(c.rank-t, n)
		rb := mod(c.rank-t-1, n)
		c.step("allgather_ring")
		if err := c.ringStep(p, 1, out[sb*blk:(sb+1)*blk], out[rb*blk:(rb+1)*blk], nil); err != nil {
			return err
		}
	}
	return nil
}
