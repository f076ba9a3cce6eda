// Public collective operations. Every rank of the communicator must call
// the same operation with the same geometry (lengths, root, operator);
// mismatches surface as length errors or hangs, exactly as in MPI.
package coll

import "fmt"

// Broadcast distributes buf from root to every rank: on root, buf is the
// message; on the others it is overwritten with it. All ranks must pass
// equal-length buffers.
func (c *Comm) Broadcast(p *simProc, buf []byte, root int, algo Algorithm) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	if c.g.n == 1 || len(buf) == 0 {
		return nil
	}
	a := c.resolve(KBroadcast, algo, len(buf))
	defer c.span("broadcast_" + a.String())()
	var err error
	if a == Tree {
		err = c.bcastTree(p, buf, root)
	} else {
		err = c.bcastChain(p, buf, root)
	}
	if err != nil {
		return err
	}
	c.g.m.broadcasts.Add(1)
	return nil
}

// Reduce folds every rank's in vector with op into out at root. in holds
// XDR-encoded dt elements; out (root only, same length as in) receives
// the result. Non-root ranks may pass a nil out.
func (c *Comm) Reduce(p *simProc, in, out []byte, op Op, dt DType, root int, algo Algorithm) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	if err := checkVector(dt, in); err != nil {
		return err
	}
	if c.rank == root && len(out) != len(in) {
		return fmt.Errorf("coll: root out is %d bytes, want %d", len(out), len(in))
	}
	if c.g.n == 1 {
		copy(out, in)
		return nil
	}
	a := c.resolve(KReduce, algo, len(in))
	defer c.span("reduce_" + a.String())()
	acc := append([]byte(nil), in...)
	var err error
	if a == Tree {
		err = c.reduceTree(p, op, dt, acc, root)
	} else {
		err = c.reduceRing(p, op, dt, acc, root)
	}
	if err != nil {
		return err
	}
	if c.rank == root {
		copy(out, acc)
	}
	c.g.m.reduces.Add(1)
	return nil
}

// AllReduce folds every rank's in vector with op and leaves the full
// result in every rank's out (same length as in). The reduction runs inside
// out, so out may be in itself; after an error its contents are
// unspecified.
func (c *Comm) AllReduce(p *simProc, in, out []byte, op Op, dt DType, algo Algorithm) error {
	if err := checkVector(dt, in); err != nil {
		return err
	}
	if len(out) != len(in) {
		return fmt.Errorf("coll: out is %d bytes, want %d", len(out), len(in))
	}
	copy(out, in)
	if c.g.n == 1 {
		return nil
	}
	a := c.resolve(KAllReduce, algo, len(in))
	defer c.span("allreduce_" + a.String())()
	var err error
	if a == Tree {
		err = c.allReduceTree(p, op, dt, out)
	} else {
		err = c.allReduceRing(p, op, dt, out)
	}
	if err != nil {
		return err
	}
	c.g.m.allreduces.Add(1)
	return nil
}

// AllGather concatenates every rank's equal-size in block into every
// rank's out, in rank order; len(out) must be Size()·len(in).
func (c *Comm) AllGather(p *simProc, in, out []byte, algo Algorithm) error {
	if len(out) != c.g.n*len(in) {
		return fmt.Errorf("coll: out is %d bytes, want %d·%d", len(out), c.g.n, len(in))
	}
	if c.g.n == 1 {
		copy(out, in)
		return nil
	}
	if len(in) == 0 {
		return nil
	}
	a := c.resolve(KAllGather, algo, len(in))
	defer c.span("allgather_" + a.String())()
	var err error
	if a == Tree {
		err = c.allGatherTree(p, in, out)
	} else {
		err = c.allGatherRing(p, in, out)
	}
	if err != nil {
		return err
	}
	c.g.m.allgathers.Add(1)
	return nil
}

func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.g.n {
		return fmt.Errorf("coll: root %d out of range [0,%d)", root, c.g.n)
	}
	return nil
}
