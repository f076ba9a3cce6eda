package coll_test

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/hw"
	"repro/internal/sim"
)

// chooseTable is the pinned Auto decision at every collsweep cell
// (allreduce, 16 KB slots, default profile). This is the table the
// pinned artifacts downstream depend on — BENCH_coll.json's auto rows
// and the collsweep golden output both assume these picks. A model
// recalibration that flips a cell must update this table deliberately,
// in the same change that regenerates those artifacts. tree and ring are
// the two estimates behind the pick, in exact ns.
var chooseTable = []struct {
	nodes, bytes int
	want         coll.Algorithm
	tree, ring   sim.Time
}{
	{4, 64, coll.Tree, 225756, 320844},
	{4, 1024, coll.Ring, 463008, 409806},
	{4, 16384, coll.Ring, 3275016, 1833300},
	{4, 131072, coll.Ring, 18170680, 8104452},
	{8, 64, coll.Tree, 338634, 741720},
	{8, 1024, coll.Tree, 694512, 845502},
	{8, 16384, coll.Ring, 4912524, 2506252},
	{8, 131072, coll.Ring, 27256020, 11462556},
	{16, 64, coll.Tree, 451512, 1581990},
	{16, 1024, coll.Tree, 926016, 1693170},
	{16, 16384, coll.Ring, 6550032, 3472560},
	{16, 131072, coll.Ring, 36341360, 14298540},
}

// TestEstimatePinned holds both estimates to the exact ns at every cell,
// so a rewrite of the model's arithmetic cannot move a pick or
// BENCH_coll.json's model column by rounding.
func TestEstimatePinned(t *testing.T) {
	m := coll.ModelFromProfile(hw.Default())
	for _, c := range chooseTable {
		tree := m.Estimate(coll.KAllReduce, coll.Tree, c.nodes, c.bytes, calibChunk)
		ring := m.Estimate(coll.KAllReduce, coll.Ring, c.nodes, c.bytes, calibChunk)
		if tree != c.tree || ring != c.ring {
			t.Errorf("%d nodes, %d B: Estimate tree/ring = %d/%d ns, pinned %d/%d",
				c.nodes, c.bytes, tree, ring, c.tree, c.ring)
		}
	}
}

// TestChooseTablePinned pins Auto's pick at every measured cell.
func TestChooseTablePinned(t *testing.T) {
	m := coll.ModelFromProfile(hw.Default())
	for _, c := range chooseTable {
		if got := m.Choose(coll.KAllReduce, c.nodes, c.bytes, calibChunk); got != c.want {
			t.Errorf("%d nodes, %d B: Choose = %v, pinned table says %v",
				c.nodes, c.bytes, got, c.want)
		}
	}
}

// TestChooseHysteresisHoldsTree verifies the anti-flapping rule
// directly: in the band where Ring's estimate is lower than Tree's but
// by less than the 10%% margin, Choose must stay with the incumbent
// Tree. The band is located by scanning payload sizes at 4 nodes, where
// the probe grid's tightest cell (1024 B, ring 11.5%% cheaper) sits just
// past the margin — the crossover approach below it passes through the
// hysteresis band.
func TestChooseHysteresisHoldsTree(t *testing.T) {
	m := coll.ModelFromProfile(hw.Default())
	inBand := 0
	for bytes := 64; bytes <= 2048; bytes += 16 {
		treeEst := m.Estimate(coll.KAllReduce, coll.Tree, 4, bytes, calibChunk)
		ringEst := m.Estimate(coll.KAllReduce, coll.Ring, 4, bytes, calibChunk)
		if ringEst >= treeEst || ringEst*10 < treeEst*9 {
			continue // not in the hysteresis band
		}
		inBand++
		if got := m.Choose(coll.KAllReduce, 4, bytes, calibChunk); got != coll.Tree {
			t.Errorf("4 nodes, %d B: ring %.1f%% cheaper (inside margin), Choose = %v, want incumbent tree",
				bytes, 100*(1-float64(ringEst)/float64(treeEst)), got)
		}
	}
	if inBand == 0 {
		t.Fatal("scan never entered the hysteresis band; widen the sweep")
	}
}

// TestChooseTableStableUnderDrift is the regression the margin exists
// for: nudging any single model constant by ±1% — the scale of a
// routine recalibration — must not flip any pinned pick. Without the
// margin, cells measuring near-tied (4 nodes / 1024 B: tree 490.4 us
// vs ring 493.5 us measured) sat on the old <= boundary and flapped
// with every calibration, churning byte-pinned artifacts downstream.
func TestChooseTableStableUnderDrift(t *testing.T) {
	base := coll.ModelFromProfile(hw.Default())
	perturb := []struct {
		name  string
		apply func(m coll.CostModel, f float64) coll.CostModel
	}{
		{"alpha", func(m coll.CostModel, f float64) coll.CostModel {
			m.Alpha = sim.Time(float64(m.Alpha) * f)
			return m
		}},
		{"gamma", func(m coll.CostModel, f float64) coll.CostModel {
			m.Gamma = sim.Time(float64(m.Gamma) * f)
			return m
		}},
		{"bytes_per_sec", func(m coll.CostModel, f float64) coll.CostModel {
			m.BytesPerSec *= f
			return m
		}},
		{"drain_bytes_per_sec", func(m coll.CostModel, f float64) coll.CostModel {
			m.DrainBytesPerSec *= f
			return m
		}},
		{"combine_bytes_per_sec", func(m coll.CostModel, f float64) coll.CostModel {
			m.CombineBytesPerSec *= f
			return m
		}},
	}
	for _, p := range perturb {
		for _, f := range []float64{0.99, 1.01} {
			m := p.apply(base, f)
			for _, c := range chooseTable {
				if got := m.Choose(coll.KAllReduce, c.nodes, c.bytes, calibChunk); got != c.want {
					t.Errorf("%s x%.2f: %d nodes, %d B: Choose flipped to %v (pinned %v)",
						p.name, f, c.nodes, c.bytes, got, c.want)
				}
			}
		}
	}
}
