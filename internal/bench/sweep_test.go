package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestDoubleRunCatchesDrift feeds the shared determinism check fake
// cells: a result that changes between the two runs must fail naming
// the sweep and the cell; equal results whose analysis reports differ
// must fail as analysis drift; a steady cell passes and returns the
// second run's report.
func TestDoubleRunCatchesDrift(t *testing.T) {
	defer func(saved *analysis.Report) { lastAnalysis = saved }(lastAnalysis)
	calls := 0
	// cell returns result(calls) and publishes a report whose verdict is
	// verdict(calls), the way capture does after a real run.
	cell := func(result, verdict func(int) int) func() (int, error) {
		calls = 0
		return func() (int, error) {
			calls++
			lastAnalysis = &analysis.Report{Verdict: strings.Repeat("x", verdict(calls))}
			return result(calls), nil
		}
	}
	steady := func(int) int { return 7 }
	moving := func(call int) int { return call }

	_, _, err := doubleRun("fakesweep", "cell A", cell(moving, steady), equal[int])
	if err == nil || !strings.Contains(err.Error(), "fakesweep determinism drift") || !strings.Contains(err.Error(), `"cell A"`) {
		t.Errorf("drifting result: err = %v, want a determinism drift naming fakesweep and \"cell A\"", err)
	}
	_, _, err = doubleRun("fakesweep", "cell B", cell(steady, moving), equal[int])
	if err == nil || !strings.Contains(err.Error(), "fakesweep analysis drift") || !strings.Contains(err.Error(), `"cell B"`) {
		t.Errorf("drifting analysis: err = %v, want an analysis drift naming fakesweep and \"cell B\"", err)
	}
	r, rep, err := doubleRun("fakesweep", "cell C", cell(steady, steady), equal[int])
	if err != nil || r != 7 || rep != lastAnalysis || calls != 2 {
		t.Errorf("steady cell = (%d, %p, %v) after %d runs, want (7, %p, nil) after 2", r, rep, err, calls, lastAnalysis)
	}
	// A caller-supplied equality sees past fields allowed to differ.
	if _, _, err := doubleRun("fakesweep", "cell D", cell(moving, steady), func(a, b int) bool { return true }); err != nil {
		t.Errorf("custom equality: %v", err)
	}
}

// TestArtifactGolden pins the one artifact writer's shape: header
// members in order, one object per cell with its report's verdict
// appended, commas between but not after cells, extra members before
// the analysis, and a null analysis when the last cell has no report.
func TestArtifactGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fake.json")
	a := artifact{
		what: "fake",
		header: [][2]string{
			{"benchmark", `"vmmc-fakesweep"`},
			{"rates_per_s", floatList([]float64{15000, 3e4})},
		},
		listKey: "cases",
		cases:   []string{`"case": "one", "ok": 1`, `"case": "two", "ok": 2`},
		reports: []*analysis.Report{{Verdict: "limiting resource: the fixture"}, nil},
		extra:   "  \"extra\": {\"n\": 1},\n",
	}
	if err := a.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "benchmark": "vmmc-fakesweep",
  "rates_per_s": [15000, 30000],
  "cases": [
    {"case": "one", "ok": 1, "verdict": "limiting resource: the fixture"},
    {"case": "two", "ok": 2, "verdict": ""}
  ],
  "extra": {"n": 1},
  "analysis": null
}
`
	if string(got) != want {
		t.Errorf("artifact =\n%s\nwant\n%s", got, want)
	}
	if err := a.write(filepath.Join(path, "under-a-file")); err == nil || !strings.Contains(err.Error(), "bench: fake artifact") {
		t.Errorf("unwritable path: err = %v, want a wrapped fake-artifact error", err)
	}
}
