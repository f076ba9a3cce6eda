package coll_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// runRanks boots a cluster, forms a communicator with one rank per node,
// and runs body concurrently in every rank's own simulation process.
func runRanks(t *testing.T, nodes int, clOpts vmmc.Options, opts coll.Options,
	body func(p *sim.Proc, c *coll.Comm)) {
	t.Helper()
	withRanks(t, nodes, clOpts, opts, func(_ *sim.Proc, all func(func(*sim.Proc, *coll.Comm))) { all(body) })
}

// withRanks boots a cluster, forms a communicator with one rank per node
// and hands fn, in the driver process, a runner: all(body) runs body once
// in every rank's own simulation process and returns when all of them
// have. The rank processes' names and bodies are built once, so a call
// costs the engine one spawn per rank and nothing else of its own.
func withRanks(t *testing.T, nodes int, clOpts vmmc.Options, opts coll.Options,
	fn func(p *sim.Proc, all func(body func(rp *sim.Proc, c *coll.Comm)))) {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	if clOpts.Nodes == 0 {
		clOpts.Nodes = nodes
	}
	cluster, err := vmmc.NewCluster(eng, clOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Packet buffers are overwritten with 0xDB as they return to the
	// fabric's free list, so a step that reduced from a recycled buffer
	// would produce a wrong vector, not a plausible stale one; and a frame
	// written after its injection fails the fabric's CRC oracle.
	cluster.Net.PoisonReleased()
	cluster.Net.VerifyIntact()
	cluster.Go("coll-test", func(p *sim.Proc) {
		procs := make([]*vmmc.Process, nodes)
		for i := range procs {
			var err error
			if procs[i], err = cluster.Nodes[i].NewProcess(p); err != nil {
				t.Fatalf("rank %d process: %v", i, err)
			}
		}
		comms, err := coll.Build(p, procs, opts)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		done := 0
		cond := sim.NewCond(eng)
		var body func(rp *sim.Proc, c *coll.Comm)
		names := make([]string, nodes)
		ranks := make([]func(rp *sim.Proc), nodes)
		for r := range comms {
			names[r] = fmt.Sprintf("rank%d", r)
			ranks[r] = func(rp *sim.Proc) {
				body(rp, comms[r])
				done++
				cond.Broadcast()
			}
		}
		fn(p, func(b func(rp *sim.Proc, c *coll.Comm)) {
			body, done = b, 0
			for r := range comms {
				eng.Go(names[r], ranks[r])
			}
			for done < nodes {
				cond.Wait(p)
			}
		})
	})
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 5
	var exitTimes [n]sim.Time
	var latest sim.Time
	runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
		// Stagger entries; no rank may leave before the last one enters.
		stagger := sim.Time(c.Rank()) * sim.Millisecond
		p.Sleep(stagger)
		entered := p.Now()
		if entered > latest {
			latest = entered
		}
		if err := c.Barrier(p); err != nil {
			t.Errorf("rank %d barrier: %v", c.Rank(), err)
		}
		exitTimes[c.Rank()] = p.Now()
	})
	for r, exit := range exitTimes {
		if exit < latest {
			t.Errorf("rank %d left the barrier at %v, before the last entry at %v", r, exit, latest)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	const n = 4
	runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
		for i := 0; i < 5; i++ {
			// Skew each round differently so token counts, not luck,
			// keep invocations apart.
			p.Sleep(sim.Time((c.Rank()*7+i)%3) * 100 * sim.Microsecond)
			if err := c.Barrier(p); err != nil {
				t.Errorf("rank %d barrier %d: %v", c.Rank(), i, err)
			}
		}
	})
}

// TestReduceAllOpsAndTypes runs an all-reduce for every built-in (op,
// dtype) pair on both algorithms and holds every rank's result to the
// reference fold — the one end-to-end check of max against expected values
// rather than against the other algorithm.
func TestReduceAllOpsAndTypes(t *testing.T) {
	const n = 4
	const elems = 64
	for _, op := range []coll.Op{coll.OpSum, coll.OpMax} {
		for _, algo := range []coll.Algorithm{coll.Tree, coll.Ring} {
			op, algo := op, algo
			t.Run(fmt.Sprintf("%v_%v_%v", op, coll.Int32, algo), func(t *testing.T) {
				runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
					in, want := reduceVectors(op, n, elems, c.Rank())
					out := make([]byte, len(in))
					if err := c.AllReduce(p, in, out, op, coll.Int32, algo); err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
						return
					}
					if !bytes.Equal(out, want) {
						t.Errorf("rank %d result differs (%v %v)", c.Rank(), op, algo)
					}
				})
			})
		}
	}
}

// reduceVectors builds rank's deterministic int32 input vector and the
// expected full reduction over n ranks.
func reduceVectors(op coll.Op, n, elems, rank int) (in, want []byte) {
	val := func(r, i int) int32 { return int32((r*31+i*7)%101 - 50) }
	mine := make([]int32, elems)
	exp := make([]int32, elems)
	for i := range mine {
		mine[i] = val(rank, i)
		acc := val(0, i)
		for r := 1; r < n; r++ {
			if v := val(r, i); op == coll.OpSum {
				acc += v
			} else if v > acc {
				acc = v
			}
		}
		exp[i] = acc
	}
	return coll.EncodeInt32s(mine), coll.EncodeInt32s(exp)
}

func TestAllReduceSequenceExercisesCredits(t *testing.T) {
	// Several large back-to-back all-reduces: payload blocks span many
	// slots, so the credit protocol must recycle slots correctly across
	// calls and algorithms.
	const n = 4
	const elems = 24 << 10 // 96 KB of int32
	runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
		for round, algo := range []coll.Algorithm{coll.Ring, coll.Tree, coll.Ring} {
			mine := make([]int32, elems)
			exp := make([]int32, elems)
			for i := range mine {
				mine[i] = int32((c.Rank()+1)*(i%50) + round)
				sum := int32(0)
				for r := 0; r < n; r++ {
					sum += int32((r+1)*(i%50) + round)
				}
				exp[i] = sum
			}
			in := coll.EncodeInt32s(mine)
			out := make([]byte, len(in))
			if err := c.AllReduce(p, in, out, coll.OpSum, coll.Int32, algo); err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
			if !bytes.Equal(out, coll.EncodeInt32s(exp)) {
				t.Errorf("rank %d round %d (%v): wrong result", c.Rank(), round, algo)
			}
		}
	})
}

// Eight ranks, 64 KB, ring: every rank is sending one block and depositing
// another at every step, so packet buffers from all eight boards cycle
// through the shared free list (poisoned on release, see runRanks) while
// their neighbours' are still in flight.
func TestRingAllReduceRecyclesBuffersSafely(t *testing.T) {
	const n = 8
	const elems = 16 << 10 // 64 KB of int32
	runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
		for round := 0; round < 3; round++ {
			in, want := reduceVectors(coll.OpSum, n, elems, c.Rank())
			out := make([]byte, len(in))
			if err := c.AllReduce(p, in, out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
			if !bytes.Equal(out, want) {
				t.Errorf("rank %d round %d: reduced vector differs from the expected one", c.Rank(), round)
			}
		}
	})
}

// AllReduce reduces inside out, so out may be in itself: every rank passes
// one buffer as both and must find the full reduction in it.
func TestAllReduceInPlace(t *testing.T) {
	const n = 5
	const elems = 6 << 10 // 24 KB: two slots a tree step, uneven ring blocks
	for _, algo := range []coll.Algorithm{coll.Tree, coll.Ring} {
		t.Run(algo.String(), func(t *testing.T) {
			runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {
				buf, want := reduceVectors(coll.OpSum, n, elems, c.Rank())
				if err := c.AllReduce(p, buf, buf, coll.OpSum, coll.Int32, algo); err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
				if !bytes.Equal(buf, want) {
					t.Errorf("rank %d: in-place %v all-reduce differs from the local sum", c.Rank(), algo)
				}
			})
		})
	}
}

func TestAutoCrossesOverBySize(t *testing.T) {
	m := coll.ModelFromProfile(hw.Default())
	const n, chunk = 8, 16 << 10
	if got := m.Choose(coll.KAllReduce, n, 64, chunk); got != coll.Tree {
		t.Errorf("64-byte all-reduce chose %v, want tree (latency-bound)", got)
	}
	if got := m.Choose(coll.KAllReduce, n, 512<<10, chunk); got != coll.Ring {
		t.Errorf("512 KB all-reduce chose %v, want ring (bandwidth-bound)", got)
	}
}

func TestNoPayloadTrafficWhenUnused(t *testing.T) {
	// Forming a communicator and never calling a collective must not
	// move payload traffic — the handshake mesh is setup only.
	const n = 3
	runRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, c *coll.Comm) {})
}
