package coll_test

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/hw"
)

// calibCell is one measured collsweep cell: BENCH_coll.json's per_op_us
// for allreduce-int32-sum on the default profile with 16 KB slots.
type calibCell struct {
	nodes, bytes int
	algo         coll.Algorithm
	measuredUS   float64
}

// calibCells is the measured snapshot the cost model is calibrated
// against — the configs array of BENCH_coll.json, regenerated with
// `go run ./cmd/vmmcbench -experiment collsweep -out .`.
// When a simulator change moves these numbers, recalibrate: paste the
// new per_op_us values here, re-run this test, and adjust the
// ModelFromProfile decomposition until every ratio is back in bounds
// (the procedure is written up in docs/COLLECTIVES.md).
var calibCells = []calibCell{
	{4, 64, coll.Tree, 242.160},
	{4, 64, coll.Ring, 368.553},
	{4, 1024, coll.Tree, 490.355},
	{4, 1024, coll.Ring, 493.453},
	{4, 16384, coll.Tree, 3323.998},
	{4, 16384, coll.Ring, 1916.947},
	{4, 131072, coll.Tree, 17805.726},
	{4, 131072, coll.Ring, 9942.167},
	{8, 64, coll.Tree, 376.964},
	{8, 64, coll.Ring, 806.142},
	{8, 1024, coll.Tree, 759.041},
	{8, 1024, coll.Ring, 921.869},
	{8, 16384, coll.Tree, 4985.997},
	{8, 16384, coll.Ring, 2661.368},
	{8, 131072, coll.Tree, 26708.589},
	{8, 131072, coll.Ring, 12829.104},
	{16, 64, coll.Tree, 512.235},
	{16, 64, coll.Ring, 1633.484},
	{16, 1024, coll.Tree, 1028.416},
	{16, 1024, coll.Ring, 1789.420},
	{16, 16384, coll.Tree, 6649.254},
	{16, 16384, coll.Ring, 3754.343},
	{16, 131072, coll.Tree, 35622.502},
	{16, 131072, coll.Ring, 15646.124},
}

const calibChunk = 16 << 10

// TestModelTracksMeasuredSweep pins the cost model's accuracy: every
// estimate must land within ±30% of the measured cell it predicts.
// Before recalibration the worst cell was 2.35x off (ring at 128 KB,
// whose bytes/n blocks span several slots but were charged one Alpha).
func TestModelTracksMeasuredSweep(t *testing.T) {
	m := coll.ModelFromProfile(hw.Default())
	for _, c := range calibCells {
		est := m.Estimate(coll.KAllReduce, c.algo, c.nodes, c.bytes, calibChunk)
		ratio := float64(est) / 1e3 / c.measuredUS
		if ratio < 0.70 || ratio > 1.30 {
			t.Errorf("%d nodes, %d B, %v: model %.1f us vs measured %.1f us (ratio %.2f, want 0.70-1.30)",
				c.nodes, c.bytes, c.algo, float64(est)/1e3, c.measuredUS, ratio)
		}
	}
}

// TestModelPicksMeasuredWinner pins the property the model exists for:
// at every measured (nodes, bytes) cell, Choose must select the
// algorithm that actually won — except when the two measured times are
// within 10% of each other, where either pick costs almost nothing and
// the crossover point may legitimately sit between them.
func TestModelPicksMeasuredWinner(t *testing.T) {
	m := coll.ModelFromProfile(hw.Default())
	meas := map[[2]int]map[coll.Algorithm]float64{}
	for _, c := range calibCells {
		k := [2]int{c.nodes, c.bytes}
		if meas[k] == nil {
			meas[k] = map[coll.Algorithm]float64{}
		}
		meas[k][c.algo] = c.measuredUS
	}
	for k, byAlgo := range meas {
		tree, ring := byAlgo[coll.Tree], byAlgo[coll.Ring]
		winner := coll.Tree
		if ring < tree {
			winner = coll.Ring
		}
		slower, faster := tree, ring
		if faster > slower {
			slower, faster = faster, slower
		}
		if slower/faster < 1.10 {
			continue // near-tie: either choice is fine
		}
		if got := m.Choose(coll.KAllReduce, k[0], k[1], calibChunk); got != winner {
			t.Errorf("%d nodes, %d B: Choose picked %v, measured winner is %v (tree %.1f us, ring %.1f us)",
				k[0], k[1], got, winner, tree, ring)
		}
	}
}
