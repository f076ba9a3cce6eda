package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// fakeCell returns a cell run for doubleRun and sweepLog.record: its n-th
// call returns result(n) and a report whose verdict is verdict(n) x's
// long, the way a real cell hands back its own report. calls counts the
// runs.
func fakeCell(calls *int, result, verdict func(int) int) func() (int, *analysis.Report, error) {
	*calls = 0
	return func() (int, *analysis.Report, error) {
		*calls++
		return result(*calls), &analysis.Report{Verdict: strings.Repeat("x", verdict(*calls))}, nil
	}
}

func steady(int) int      { return 7 }
func moving(call int) int { return call }

// TestDoubleRunCatchesDrift feeds the shared determinism check fake
// cells: a result that changes between the two runs must fail naming
// the sweep and the cell; equal results whose analysis reports differ
// must fail as analysis drift; a steady cell passes and returns the
// second run's report.
func TestDoubleRunCatchesDrift(t *testing.T) {
	var calls int
	_, _, err := doubleRun("fakesweep", "cell A", fakeCell(&calls, moving, steady), equal[int])
	if err == nil || !strings.Contains(err.Error(), "fakesweep determinism drift") || !strings.Contains(err.Error(), `"cell A"`) {
		t.Errorf("drifting result: err = %v, want a determinism drift naming fakesweep and \"cell A\"", err)
	}
	_, _, err = doubleRun("fakesweep", "cell B", fakeCell(&calls, steady, moving), equal[int])
	if err == nil || !strings.Contains(err.Error(), "fakesweep analysis drift") || !strings.Contains(err.Error(), `"cell B"`) {
		t.Errorf("drifting analysis: err = %v, want an analysis drift naming fakesweep and \"cell B\"", err)
	}
	var second *analysis.Report
	run := fakeCell(&calls, steady, steady)
	r, rep, err := doubleRun("fakesweep", "cell C", func() (int, *analysis.Report, error) {
		r, rep, err := run()
		second = rep
		return r, rep, err
	}, equal[int])
	if err != nil || r != 7 || rep != second || calls != 2 {
		t.Errorf("steady cell = (%d, %p, %v) after %d runs, want (7, %p, nil) after 2", r, rep, err, calls, second)
	}
	// A caller-supplied equality sees past fields allowed to differ.
	if _, _, err := doubleRun("fakesweep", "cell D", fakeCell(&calls, moving, steady), func(a, b int) bool { return true }); err != nil {
		t.Errorf("custom equality: %v", err)
	}
}

// TestSweepLogRecord pins the one record-a-cell block: the cell runs
// exactly twice when asked and once otherwise, and its result, report,
// row and (when the sweep prints one) verdict note are filed in run
// order; a failing or drifting cell files nothing.
func TestSweepLogRecord(t *testing.T) {
	for _, note := range []bool{true, false} {
		var tbl Table
		log := sweepLog[int]{sweep: "fakesweep", same: equal[int], note: note, t: &tbl,
			row: func(r int) []string { return []string{fmt.Sprint("row ", r)} }}
		var calls int
		if err := log.record("first", true, fakeCell(&calls, steady, steady)); err != nil || calls != 2 {
			t.Fatalf("twice: err = %v after %d runs, want nil after 2", err, calls)
		}
		if err := log.record("second", false, fakeCell(&calls, func(int) int { return 9 }, func(int) int { return 3 })); err != nil || calls != 1 {
			t.Fatalf("once: err = %v after %d runs, want nil after 1", err, calls)
		}
		if err := log.record("drifts", true, fakeCell(&calls, moving, steady)); err == nil {
			t.Error("a drifting cell was recorded")
		}
		boom := errors.New("boom")
		if err := log.record("fails", false, func() (int, *analysis.Report, error) { return 0, nil, boom }); !errors.Is(err, boom) {
			t.Errorf("failing cell: err = %v, want boom", err)
		}
		if !slices.Equal(log.results, []int{7, 9}) {
			t.Errorf("results = %v, want [7 9]", log.results)
		}
		if len(log.reports) != 2 || log.reports[0].Verdict != "xxxxxxx" || log.reports[1].Verdict != "xxx" {
			t.Errorf("reports = %v, want the two cells' own, in order", log.reports)
		}
		if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "row 7" || tbl.Rows[1][0] != "row 9" {
			t.Errorf("rows = %v, want [[row 7] [row 9]]", tbl.Rows)
		}
		wantNotes := []string(nil)
		if note {
			wantNotes = []string{"analysis (first): xxxxxxx", "analysis (second): xxx"}
		}
		if !slices.Equal(tbl.Notes, wantNotes) {
			t.Errorf("note=%v: notes = %q, want %q", note, tbl.Notes, wantNotes)
		}
	}
}

// TestArtifactGolden pins the one artifact writer's shape: header
// members in order, one object per cell with its report's verdict
// appended, commas between but not after cells, extra members before
// the analysis, and the last cell's report embedded as the analysis.
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
		reports: []*analysis.Report{{Verdict: "limiting resource: the fixture"}, {Verdict: "the last cell"}},
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
    {"case": "two", "ok": 2, "verdict": "the last cell"}
  ],
  "extra": {"n": 1},
  "analysis": {
    "window_ns": 0,
    "bucket_ns": 0,
    "top_k": 0,
    "verdict": "the last cell",
    "phases": [
    ],
    "resources": [
    ],
    "occupancy": [
    ]
  }
}
`
	if string(got) != want {
		t.Errorf("artifact =\n%s\nwant\n%s", got, want)
	}
	if err := a.write(filepath.Join(path, "under-a-file")); err == nil || !strings.Contains(err.Error(), "bench: fake artifact") {
		t.Errorf("unwritable path: err = %v, want a wrapped fake-artifact error", err)
	}
}
