package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coll"
)

func TestCollSweepSmoke(t *testing.T) {
	rn := outTo(t.TempDir())
	tbl, err := rn.CollSweep(CollConfig{Nodes: []int{4}, Sizes: []int{64, 16 << 10}, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x 2 algorithms + the heal-interop row.
	if got := len(tbl.Rows); got != 5 {
		t.Fatalf("collsweep produced %d rows, want 5", got)
	}
	data, err := os.ReadFile(filepath.Join(rn.OutDir, "BENCH_coll.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"benchmark": "vmmc-collsweep"`, `"heal_interop"`, `"algorithm": "ring"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact missing %q", want)
		}
	}
}

// TestCollSweepCrossover pins the acceptance property on a mid-size
// communicator: the binomial tree must win the smallest vector and the
// pipelined ring the largest, and the cost model's Auto choice must
// agree at both extremes.
func TestCollSweepCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("crossover cells are a few seconds of simulation")
	}
	type cell struct {
		size int
		algo coll.Algorithm
	}
	perOp := map[cell]CollResult{}
	for _, size := range []int{64, 128 << 10} {
		for _, algo := range []coll.Algorithm{coll.Tree, coll.Ring} {
			r, _, err := new(Run).runCollCase(8, size, algo, 1)
			if err != nil {
				t.Fatal(err)
			}
			perOp[cell{size, algo}] = r
		}
	}
	if tr, ri := perOp[cell{64, coll.Tree}], perOp[cell{64, coll.Ring}]; tr.PerOp >= ri.PerOp {
		t.Errorf("small vector: tree %v not faster than ring %v", tr.PerOp, ri.PerOp)
	} else if !tr.ModelChoice {
		t.Errorf("small vector: model does not pick tree")
	}
	if tr, ri := perOp[cell{128 << 10, coll.Tree}], perOp[cell{128 << 10, coll.Ring}]; ri.PerOp >= tr.PerOp {
		t.Errorf("large vector: ring %v not faster than tree %v", ri.PerOp, tr.PerOp)
	} else if !ri.ModelChoice {
		t.Errorf("large vector: model does not pick ring")
	}
}
