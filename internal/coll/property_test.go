package coll_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/lanai"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// lcg is a deterministic generator for property-test vectors (no host
// RNG: results must be identical on every run and machine).
type lcg struct{ x uint64 }

func (g *lcg) next() uint64 {
	g.x = g.x*6364136223846793005 + 1442695040888963407
	return g.x >> 16
}

// TestTreeAndRingAllReduceByteIdentical is the cross-algorithm property:
// for operators that are exactly associative and commutative on their
// carrier (int32 modular sum and max), the tree and ring schedules apply
// the same multiset of combines, so the XDR result vectors must be
// byte-identical.
func TestTreeAndRingAllReduceByteIdentical(t *testing.T) {
	const n = 6
	cases := []struct {
		name  string
		op    coll.Op
		elems int
	}{
		{"sum_int32", coll.OpSum, 700},
		{"max_int32", coll.OpMax, 500},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			results := map[coll.Algorithm][][]byte{}
			for _, algo := range []coll.Algorithm{coll.Tree, coll.Ring} {
				algo := algo
				perRank := make([][]byte, n)
				runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
					in := seededVector(tc.elems, c.Rank())
					out := make([]byte, len(in))
					if err := c.AllReduce(p, in, out, tc.op, coll.Int32, algo); err != nil {
						t.Errorf("rank %d (%v): %v", c.Rank(), algo, err)
						return
					}
					perRank[c.Rank()] = out
				})
				results[algo] = perRank
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(results[coll.Tree][r], results[coll.Ring][r]) {
					t.Errorf("rank %d: tree and ring all-reduce results differ (%s)", r, tc.name)
				}
			}
			for r := 1; r < n; r++ {
				if !bytes.Equal(results[coll.Tree][0], results[coll.Tree][r]) {
					t.Errorf("ranks 0 and %d disagree after all-reduce", r)
				}
			}
		})
	}
}

// seededVector builds rank's deterministic int32 input.
func seededVector(elems, rank int) []byte {
	g := lcg{x: uint64(rank)*0x9E3779B9 + 12345}
	v := make([]int32, elems)
	for i := range v {
		v[i] = int32(g.next()%20011) - 10005
	}
	return coll.EncodeInt32s(v)
}

// healedAllReduce runs a sequence of ring all-reduces on a 4-node diamond
// fabric with the reliability and healing layers on, optionally with a
// link outage biting mid-sequence, and returns every rank's final result
// plus the virtual completion time.
func healedAllReduce(t *testing.T, withOutage bool) (results [][]byte, elapsed sim.Time, sendFails int64) {
	t.Helper()
	const n = 4
	const elems = 4 << 10 // 16 KB of int32: several slots per block round
	const rounds = 3
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 0x4EA1)
	relCfg := lanai.DefaultReliability()
	relCfg.MaxRetries = 8
	relCfg.AckDelay = 25 * sim.Microsecond
	cluster, err := vmmc.NewCluster(eng, vmmc.Options{
		Nodes:       n,
		Reliable:    true,
		Reliability: &relCfg,
		Faults:      pl,
		BuildFabric: bench.DiamondFabric,
		Heal:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	results = make([][]byte, n)
	cluster.Go("coll-heal", func(p *sim.Proc) {
		procs := make([]*vmmc.Process, n)
		for i := range procs {
			if procs[i], err = cluster.Nodes[i].NewProcess(p); err != nil {
				t.Fatalf("rank %d process: %v", i, err)
			}
		}
		comms, err := coll.Build(p, procs, coll.Options{})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if withOutage {
			// Cut node 2's cable shortly after the sequence starts; the
			// reliability layer carries the in-flight blocks across the
			// outage and the collective completes with zero errors.
			pl.LinkOutage(cluster.Nodes[2].Board.NIC.ID,
				p.Now()+400*sim.Microsecond, p.Now()+3*sim.Millisecond)
		}
		start := p.Now()
		done := 0
		cond := sim.NewCond(eng)
		for r := range comms {
			r := r
			eng.Go(fmt.Sprintf("rank%d", r), func(rp *sim.Proc) {
				acc := seededVector(elems, r)
				out := make([]byte, len(acc))
				for round := 0; round < rounds; round++ {
					if err := comms[r].AllReduce(rp, acc, out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
						t.Errorf("rank %d round %d: %v", r, round, err)
						break
					}
					copy(acc, out)
				}
				results[r] = out
				done++
				cond.Broadcast()
			})
		}
		for done < n {
			cond.Wait(p)
		}
		elapsed = p.Now() - start
		for _, proc := range procs {
			sendFails += proc.Errors().SendFailures
		}
	})
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	return results, elapsed, sendFails
}

// TestAllReduceAcrossHealedOutage is the heal-interop property: a ring
// all-reduce sequence over the diamond fabric, with a link outage healed
// under it, must produce results byte-identical to the fault-free run —
// only slower — and surface zero application-visible errors.
func TestAllReduceAcrossHealedOutage(t *testing.T) {
	clean, cleanTime, cleanFails := healedAllReduce(t, false)
	faulted, faultTime, faultFails := healedAllReduce(t, true)
	if cleanFails != 0 || faultFails != 0 {
		t.Fatalf("application-visible send failures: clean %d, faulted %d; want 0", cleanFails, faultFails)
	}
	for r := range clean {
		if !bytes.Equal(clean[r], faulted[r]) {
			t.Errorf("rank %d: result differs between fault-free and healed runs", r)
		}
	}
	if faultTime <= cleanTime {
		t.Errorf("healed run took %v, fault-free %v: outage should only cost time", faultTime, cleanTime)
	}
}
