package coll_test

import (
	"bytes"
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// TestRingOversizedBlockTwoRanks pins the old n=2 credit-pipeline deadlock
// shape: with the credit window of 2 slots × 16 KB, a ring round whose
// per-rank block exceeds the window used to wedge both ranks — each posted its full block before draining the other's, and at
// n=2 every rank is simultaneously its neighbor's sender and receiver, so
// neither ever reached its receive. The sub-round split in ring.go must
// let this complete and still compute the right result, in both the
// reduce-scatter rounds and the all-gather rounds.
func TestRingOversizedBlockTwoRanks(t *testing.T) {
	const n = 2
	const elems = 24 << 10 // 96 KB of int32: 48 KB per ring block > 32 KB window
	runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
		mine := make([]int32, elems)
		exp := make([]int32, elems)
		for i := range mine {
			mine[i] = int32((c.Rank() + 1) * (i%37 + 1))
			exp[i] = int32(1*(i%37+1) + 2*(i%37+1))
		}
		in := coll.EncodeInt32s(mine)
		out := make([]byte, len(in))
		if err := c.AllReduce(p, in, out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(out, coll.EncodeInt32s(exp)) {
			t.Errorf("rank %d: wrong all-reduce result", c.Rank())
		}
	})
}
