// Binomial-tree all-reduce: the latency-bound variant, a reduce to rank 0
// and a broadcast back from it, each finishing in ceil(log2 n) rounds that
// move the whole payload. The loops are the classic mask walks over the
// rank, rooted at 0.
package coll

// bcastTree distributes buf from rank 0 along a binomial tree: each rank
// receives once from its parent, then forwards to its ever-smaller
// subtrees.
func (c *Comm) bcastTree(p *simProc, buf []byte) error {
	n, r := c.g.n, c.rank
	// Receive from the parent (the rank that differs in our lowest set
	// bit); rank 0 has none and falls through with mask at the top.
	mask := 1
	for mask < n {
		if r&mask != 0 {
			c.step("bcast_tree_recv")
			if err := c.recvPayload(p, r-mask, buf); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	// Forward to children: the ranks r+mask for each mask below the bit
	// we received on.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if r+mask < n {
			c.step("bcast_tree_send")
			if err := c.sendPayload(p, r+mask, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// reduceTree folds every rank's acc toward rank 0 along the binomial tree
// (commutative operators): each rank combines its children's partial
// results into acc, then sends acc to its parent. On return, rank 0's acc
// holds the full reduction; other ranks' accs are scratch.
func (c *Comm) reduceTree(p *simProc, op Op, dt DType, acc []byte) error {
	n, r := c.g.n, c.rank
	tmp := c.reduceScratch(len(acc))
	for mask := 1; mask < n; mask <<= 1 {
		if r&mask != 0 {
			c.step("reduce_tree_send")
			return c.sendPayload(p, r&^mask, acc)
		}
		if child := r | mask; child < n {
			c.step("reduce_tree_recv")
			if err := c.recvPayload(p, child, tmp); err != nil {
				return err
			}
			if err := c.combine(p, op, dt, acc, tmp); err != nil {
				return err
			}
		}
	}
	return nil
}

// allReduceTree is reduce-to-0 followed by broadcast-from-0.
func (c *Comm) allReduceTree(p *simProc, op Op, dt DType, acc []byte) error {
	if err := c.reduceTree(p, op, dt, acc); err != nil {
		return err
	}
	return c.bcastTree(p, acc)
}
