// Public collective operations. Every rank of the communicator must call
// the same operation with the same geometry (lengths, operator);
// mismatches surface as length errors or hangs, exactly as in MPI.
package coll

import "fmt"

// AllReduce folds every rank's in vector with op and leaves the full
// result in every rank's out (same length as in). in holds XDR-encoded dt
// elements. The reduction runs inside out, so out may be in itself; after
// an error its contents are unspecified.
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
	eng := c.proc.Node.Eng
	var err error
	if c.resolve(algo, len(in)) == Tree {
		eng.TraceBegin(c.comp, "coll", "allreduce_tree")
		defer eng.TraceEnd(c.comp, "coll", "allreduce_tree")
		err = c.allReduceTree(p, op, dt, out)
	} else {
		eng.TraceBegin(c.comp, "coll", "allreduce_ring")
		defer eng.TraceEnd(c.comp, "coll", "allreduce_ring")
		err = c.allReduceRing(p, op, dt, out)
	}
	if err != nil {
		return err
	}
	c.g.m.allreduces.Add(1)
	return nil
}
