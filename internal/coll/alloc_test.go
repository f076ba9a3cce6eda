package coll_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// allocStats is what the host allocated over some runs of an op, per run.
type allocStats struct {
	allocs, bytes float64
	// large counts allocations in the size classes from 4 KB — a page, the
	// smallest piece a ring step or a slot carries — to 32 KB; a larger
	// one shows in bytes. Per-message bookkeeping (packets, closures,
	// processes) never comes near it; a payload-sized buffer does.
	large float64
}

func measureAllocs(runs int, op func()) allocStats {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	large := uint64(0)
	for i, c := range m1.BySize {
		if c.Size >= 4096 {
			large += c.Mallocs - m0.BySize[i].Mallocs
		}
	}
	return allocStats{
		// Whole allocations per run, as testing.AllocsPerRun counts them:
		// the runtime's own rare allocations (a GC cycle starting its
		// workers) average out below one.
		allocs: float64((m1.Mallocs - m0.Mallocs) / uint64(runs)),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs),
		large:  float64(large) / float64(runs),
	}
}

// TestAllReduceAllocationCeilings holds the host allocations of one
// all-reduce on a warmed 8-rank communicator, summed over the ranks (and
// the eight spawns that start them): a 64 B tree all-reduce and a 64 KB
// ring all-reduce, the two sizes the allreduce benchmark mixes. What is
// left is the simulator's per-message bookkeeping — the senders' waits,
// the short sends' inline copies — about 16 to 45 bytes an allocation;
// packet records, long-send jobs and notification records are recycled,
// and a handler runs in the signal's event, with no process of its own. No buffer of a page or more is
// allocated, where each rank used to allocate a result-sized accumulator,
// a result-sized scratch vector and a copy of every slot it drained (1.9 MB
// per 64 KB op). The ceilings are the measured counts (go1.24); they were
// 249 and 12 KB, 2 713 and 134 KB while every packet allocated its record,
// delivery closure and ingress slice, and 165 and 8.2 KB, 1 257 and
// 55.9 KB while a notification boxed its cause, built two closures and
// ran a service process, WaitSend's result escaped and each span built
// its name and a closure, and 65 and 3.3 KB, 457 and 17.8 KB while each
// handler ran in a process of its own. Bytes are measured at 1.6 and
// 3.7 KB and get room above that (ceilings of 2.5 and 6, plus 4%),
// because under the race detector the runtime has no tiny allocator and
// the same allocations take more: 1.8 to 2.0 and 5.0 KB. Handoffs per op
// are exact counts, held at the measured 396 and 4 756; they were 426 and
// 4 980 with a process per handler, and 482 and 5 428 with the service
// process.
func TestAllReduceAllocationCeilings(t *testing.T) {
	const n = 8
	cases := []struct {
		name  string
		bytes int
		algo  coll.Algorithm
		// ceilings
		allocs, kb, handoffs float64
	}{
		{"64 B tree all-reduce", 64, coll.Tree, 37, 2.5, 396},
		{"64 KB ring all-reduce", 64 << 10, coll.Ring, 233, 6, 4756},
	}
	withRanks(t, n, vmmc.Options{}, coll.Options{}, func(p *sim.Proc, all func(func(*sim.Proc, *coll.Comm))) {
		for _, tc := range cases {
			in := make([][]byte, n)
			out := make([][]byte, n)
			for r := range in {
				in[r] = seededVector(tc.bytes/4, r)
				out[r] = make([]byte, tc.bytes)
			}
			op := func() {
				all(func(rp *sim.Proc, c *coll.Comm) {
					if err := c.AllReduce(rp, in[c.Rank()], out[c.Rank()], coll.OpSum, coll.Int32, tc.algo); err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
					}
				})
			}
			for i := 0; i < 3; i++ { // pipelines, TLBs, free lists, scratch
				op()
			}
			const runs = 20
			before := p.Engine().SchedStats()
			m := measureAllocs(runs, op)
			handoffs := float64(p.Engine().SchedStats().Handoffs-before.Handoffs) / runs
			kb := m.bytes / 1024
			t.Logf("%s, 8 ranks: %.0f allocations, %.1f KB, %.0f handoffs", tc.name, m.allocs, kb, handoffs)
			if handoffs > tc.handoffs {
				t.Errorf("%s: %.0f handoffs, ceiling %.0f", tc.name, handoffs, tc.handoffs)
			}
			if m.allocs > tc.allocs {
				t.Errorf("%s: %.0f allocations, ceiling %.0f", tc.name, m.allocs, tc.allocs)
			}
			if kb > tc.kb*1.04 {
				t.Errorf("%s: %.1f KB allocated, ceiling %.1f", tc.name, kb, tc.kb)
			}
			if m.large != 0 {
				t.Errorf("%s: %.2f allocations of 4 KB or more per op: a payload-sized buffer is back", tc.name, m.large)
			}
			for r := 1; r < n; r++ {
				if !bytes.Equal(out[r], out[0]) {
					t.Errorf("%s: ranks 0 and %d disagree", tc.name, r)
				}
			}
		}
	})
}
