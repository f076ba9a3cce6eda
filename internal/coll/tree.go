// Binomial-tree algorithms: latency-bound variants that finish in
// ceil(log2 n) rounds, each moving the whole payload. The loops are the
// classic mask walks over the virtual rank vr = (rank - root + n) mod n,
// so any root reuses the rank-0 tree shape.
package coll

import "fmt"

// bcastTree distributes buf from root along a binomial tree: each rank
// receives once from its parent, then forwards to its ever-smaller
// subtrees.
func (c *Comm) bcastTree(p *simProc, buf []byte, root int) error {
	n := c.g.n
	vr := (c.rank - root + n) % n
	// Receive from the parent (the rank that differs in our lowest set
	// bit); the root has none and falls through with mask at the top.
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			parent := (vr - mask + root) % n
			c.step("bcast_tree_recv")
			if err := c.recvPayload(p, parent, buf); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	// Forward to children: the ranks vr+mask for each mask below the bit
	// we received on.
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			child := (vr + mask + root) % n
			c.step("bcast_tree_send")
			if err := c.sendPayload(p, child, buf); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}

// reduceTree folds every rank's acc toward root along the binomial tree
// (commutative operators): each rank combines its children's partial
// results into acc, then sends acc to its parent. On return, root's acc
// holds the full reduction; other ranks' accs are scratch.
func (c *Comm) reduceTree(p *simProc, op Op, dt DType, acc []byte, root int) error {
	n := c.g.n
	vr := (c.rank - root + n) % n
	tmp := c.reduceScratch(len(acc))
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			parent := ((vr &^ mask) + root) % n
			c.step("reduce_tree_send")
			return c.sendPayload(p, parent, acc)
		}
		child := vr | mask
		if child < n {
			src := (child + root) % n
			c.step("reduce_tree_recv")
			if err := c.recvPayload(p, src, tmp); err != nil {
				return err
			}
			if err := c.combine(p, op, dt, acc, tmp); err != nil {
				return err
			}
		}
	}
	return nil
}

// gatherTree collects each rank's B-byte block into out (n·B bytes, rank
// order) at root — the mirror image of bcastTree: leaves send first, and
// every internal rank accumulates its subtree's contiguous block range
// before forwarding it.
func (c *Comm) gatherTree(p *simProc, in []byte, out []byte, root int) error {
	n := c.g.n
	blk := len(in)
	vr := (c.rank - root + n) % n
	// held counts how many consecutive virtual-rank blocks [vr, vr+held)
	// this rank currently holds in out.
	copy(out[vr*blk:], in)
	held := 1
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			parent := ((vr &^ mask) + root) % n
			c.step("gather_tree_send")
			return c.sendPayload(p, parent, out[vr*blk:(vr+held)*blk])
		}
		child := vr | mask
		if child < n {
			cnt := mask
			if child+cnt > n {
				cnt = n - child
			}
			src := (child + root) % n
			c.step("gather_tree_recv")
			if err := c.recvPayload(p, src, out[child*blk:(child+cnt)*blk]); err != nil {
				return err
			}
			held = child + cnt - vr
		}
	}
	return nil
}

// allGatherTree gathers every rank's block to rank 0 (virtual-rank
// order == rank order when root is 0) and tree-broadcasts the assembled
// vector.
func (c *Comm) allGatherTree(p *simProc, in, out []byte) error {
	if err := c.gatherTree(p, in, out, 0); err != nil {
		return err
	}
	return c.bcastTree(p, out, 0)
}

// allReduceTree is reduce-to-0 followed by broadcast-from-0.
func (c *Comm) allReduceTree(p *simProc, op Op, dt DType, acc []byte) error {
	if err := c.reduceTree(p, op, dt, acc, 0); err != nil {
		return err
	}
	return c.bcastTree(p, acc, 0)
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
