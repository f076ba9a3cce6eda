package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/coll"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

const (
	allreduceRanks = 8
	allreduceSmall = 64
	allreduceLarge = 64 << 10
	allreduceMix   = 8 // one op in every allreduceMix is large
)

// Why: coll is the most expensive code per op in the repo; 7 of 8 ops take
// the 64 B tree path (p50), 1 of 8 the 64 KB ring path with credit stalls
// (p99), all notification-driven rather than spinning
var allreduceWorkload = &workload{
	name:      "allreduce",
	opsPerSec: 320,
	unit:      allreduceMix,
	opts:      func() vmmc.Options { return vmmc.Options{Nodes: allreduceRanks, MemBytes: 2 << 20} },
	build:     buildAllreduce,
}

// allreduce runs int32-sum all-reduces over one rank per node with
// coll.Auto choosing the algorithm per size.
type allreduce struct {
	e      *env
	comms  []*coll.Comm
	in     [2][][]byte // [large][rank] seeded input vectors
	want   [2][]byte   // [large] locally computed sums
	issued int
	// Rank 0's latencies by size class, for the coll.* metrics.
	small, large []sim.Time
}

func buildAllreduce(p *sim.Proc, c *vmmc.Cluster, e *env) (runner, error) {
	ar := &allreduce{e: e}
	procs := make([]*vmmc.Process, len(c.Nodes))
	for i := range procs {
		var err error
		if procs[i], err = c.Nodes[i].NewProcess(p); err != nil {
			return nil, err
		}
	}
	var err error
	if ar.comms, err = coll.Build(p, procs, coll.Options{}); err != nil {
		return nil, err
	}
	rng := e.seed ^ 0x616c6c72
	for class, bytes := range []int{allreduceSmall, allreduceLarge} {
		sum := make([]int32, bytes/4)
		for range procs {
			v := make([]int32, bytes/4)
			for k := range v {
				v[k] = int32(splitmix64(&rng))
				sum[k] += v[k]
			}
			ar.in[class] = append(ar.in[class], coll.EncodeInt32s(v))
		}
		ar.want[class] = coll.EncodeInt32s(sum)
	}
	// One op of each size warms pipelines, TLBs and handlers.
	ar.issued = allreduceMix - 2
	if err := ar.run(p, 2, false); err != nil {
		return nil, err
	}
	return ar, nil
}

// run executes n collectives on every rank; op g is large when g is the
// last of its group of allreduceMix.
func (ar *allreduce) run(p *sim.Proc, n int, record bool) error {
	first := ar.issued
	rec := ar.e.rec
	err := fanOut(p, "allreduce:rank", len(ar.comms), func(r int, rp *sim.Proc) error {
		cm := ar.comms[r]
		out := [2][]byte{make([]byte, allreduceSmall), make([]byte, allreduceLarge)}
		for g := first; g < first+n; g++ {
			class := 0
			if g%allreduceMix == allreduceMix-1 {
				class = 1
			}
			t0 := rp.Now()
			sp := 0
			if r == 0 {
				sp = rec.begin(rp, 0, int64(g), "coll", "AllReduce")
			}
			err := cm.AllReduce(rp, ar.in[class][r], out[class], coll.OpSum, coll.Int32, coll.Auto)
			rec.end(rp, sp)
			if err != nil {
				return err
			}
			// The first small and the first large op of every batch are
			// checked against the locally computed sum, on every rank.
			if g-first < allreduceMix && (class == 1 || g == first) && !bytes.Equal(out[class], ar.want[class]) {
				return fmt.Errorf("op %d: result differs from the local sum", g)
			}
			if r == 0 && record {
				d := rp.Now() - t0
				ar.e.lat = append(ar.e.lat, d)
				if class == 1 {
					ar.large = append(ar.large, d)
					ar.e.okBytes += allreduceLarge
				} else {
					ar.small = append(ar.small, d)
					ar.e.okBytes += allreduceSmall
				}
			}
		}
		return nil
	})
	ar.issued += n
	return err
}

func (ar *allreduce) batch(p *sim.Proc, n int) error {
	if err := ar.run(p, n, true); err != nil {
		return err
	}
	ar.e.attempted += int64(n)
	ar.e.ok += int64(n)
	return nil
}

func (ar *allreduce) finish(*sim.Proc) error { return nil }

func (ar *allreduce) layer(p *sim.Proc, m metrics, s *section) error {
	ops := float64(s.ops)
	delta := func(name string) float64 {
		a, _ := s.snap1.Counter(name)
		b, _ := s.snap0.Counter(name)
		return float64(a - b)
	}
	m["coll.credit_stalls_per_op"] = delta("coll/credit_stalls") / ops
	m["coll.payload_msgs_per_op"] = delta("coll/payload_msgs") / ops
	m["coll.signals_per_op"] = delta("coll/signals") / ops

	model := ar.comms[0].Model()
	n := len(ar.comms)
	const slot = 16 << 10 // coll.Options default SlotBytes
	errSum := 0.0
	for class, lat := range [][]sim.Time{ar.small, ar.large} {
		p50 := median(lat)
		bytes := []int{allreduceSmall, allreduceLarge}[class]
		algo := model.Choose(coll.KAllReduce, n, bytes, slot)
		est := model.Estimate(coll.KAllReduce, algo, n, bytes, slot)
		errSum += math.Abs(est.Micros()-p50.Micros()) / p50.Micros()
		m[[]string{"coll.small_virt_us_p50", "coll.large_virt_us_p50"}[class]] = p50.Micros()
	}
	m["coll.model_err_frac"] = errSum / 2

	// Barrier in isolation on the warmed communicator: median of 16.
	var samples []sim.Time
	err := fanOut(p, "allreduce:barrier", n, func(r int, rp *sim.Proc) error {
		for i := 0; i < 16; i++ {
			t0 := rp.Now()
			if err := ar.comms[r].Barrier(rp); err != nil {
				return err
			}
			if r == 0 {
				samples = append(samples, rp.Now()-t0)
			}
		}
		return nil
	})
	m["coll.probe_barrier_virt_us"] = median(samples).Micros()
	return err
}
