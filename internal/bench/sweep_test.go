package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// fakeTail is embedded in fakeRecord: an embedding renders in place, and
// its hide tag drops a column from the table but not from the artifact.
type fakeTail struct {
	P99  sim.Time `key:"p99_us,%.3f" col:"p99,%.1f us"`
	Shed int64    `key:"shed,%d" col:"shed,%d"`
}

// fakeRecord exercises every tag form and verb the sweeps' records use.
type fakeRecord struct {
	Case     string  `key:"case,%q" col:"case,%s"`
	Rate     float64 `key:"rate,%.0f" col:"rate,%.0f/s"`
	OK       int64   `key:"ok,%d" col:"ok"`
	Sent     int64   // untagged: not rendered
	Match    bool    `key:"match,%t" col:"match,match=%t,after=p99"`
	fakeTail `hide:"shed"`
	Frac     float64 `key:"frac,%.4f"`
	MBps     float64 `key:"mb_s,%.2f"`
	Hot      []int64 `key:"hot,%d"`
	Wall     float64 `key:"wall_s,%.3f" col:"wall,%.2f s"`
}

func (r fakeRecord) computed() string { return fmt.Sprintf("%d/%d", r.OK, r.Sent) }

func steadyRecord(int) fakeRecord {
	return fakeRecord{Case: "steady", OK: 7, Sent: 8, Hot: []int64{1, 2}, fakeTail: fakeTail{P99: 5 * sim.Microsecond}}
}

// fakeCell returns a cell run for sweepLog.record: its n-th
// call returns result(n) and a report whose verdict is verdict(n) x's
// long, the way a real cell hands back its own report. calls counts the
// runs.
func fakeCell(calls *int, result func(int) fakeRecord, verdict func(int) int) func() (fakeRecord, *analysis.Report, error) {
	*calls = 0
	return func() (fakeRecord, *analysis.Report, error) {
		*calls++
		return result(*calls), &analysis.Report{Verdict: strings.Repeat("x", verdict(*calls))}, nil
	}
}

func steady(int) int { return 7 }

// outTo returns a Run whose sweeps write their artifacts into dir.
func outTo(dir string) *Run { return &Run{Observability: Observability{OutDir: dir}} }

// TestSweepLogRecord pins the one record-a-cell block: the cell runs
// exactly once, and its record, report, row and (when the sweep prints
// one) verdict note are filed in run order; a failing cell files
// nothing.
func TestSweepLogRecord(t *testing.T) {
	for _, note := range []bool{true, false} {
		tbl := Table{Columns: columns(fakeRecord{})}
		log := sweepLog[fakeRecord]{sweep: "fakesweep", note: note, t: &tbl}
		var calls int
		if err := log.record("first", fakeCell(&calls, steadyRecord, steady)); err != nil || calls != 1 {
			t.Fatalf("first: err = %v after %d runs, want nil after 1", err, calls)
		}
		nine := func(int) fakeRecord { return fakeRecord{Case: "second", OK: 9, Sent: 9} }
		if err := log.record("second", fakeCell(&calls, nine, func(int) int { return 3 })); err != nil || calls != 1 {
			t.Fatalf("second: err = %v after %d runs, want nil after 1", err, calls)
		}
		boom := errors.New("boom")
		if err := log.record("fails", func() (fakeRecord, *analysis.Report, error) { return fakeRecord{}, nil, boom }); !errors.Is(err, boom) {
			t.Errorf("failing cell: err = %v, want boom", err)
		}
		if len(log.results) != 2 || log.results[0].OK != 7 || log.results[1].OK != 9 {
			t.Errorf("results = %+v, want OK 7 then 9", log.results)
		}
		if len(log.reports) != 2 || log.reports[0].Verdict != "xxxxxxx" || log.reports[1].Verdict != "xxx" {
			t.Errorf("reports = %v, want the two cells' own, in order", log.reports)
		}
		if len(tbl.Rows) != 2 || tbl.Rows[0][2] != "7/8" || tbl.Rows[1][2] != "9/9" {
			t.Errorf("rows = %q, want the two cells' ok columns 7/8 and 9/9", tbl.Rows)
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

// TestArtifactGolden pins the one encoder and the artifact writer around
// it over a fake record. The table: columns in declaration order, one
// moved by after=, one hidden by its embedding, a computed column, verbs
// with units. The artifact: written to BENCH_<sweep>.json in the output
// directory, the benchmark named after the sweep, header members in
// order, one object per cell — every verb the sweeps use, a sim.Time in
// microseconds, a list, the embedded struct in place, the untagged field
// skipped — with its report's
// verdict appended, commas between but not after cells, extra members
// before the analysis, and the last cell's report embedded as the
// analysis. The file must parse as JSON.
func TestArtifactGolden(t *testing.T) {
	one := fakeRecord{Case: `one "q"`, Rate: 15000, OK: 3, Sent: 4, Match: true,
		fakeTail: fakeTail{P99: 12345 * sim.Nanosecond, Shed: 2},
		Frac:     0.75, MBps: 45.1, Hot: []int64{1, 2, 3}, Wall: 0.1234}
	two := fakeRecord{Case: "two", Hot: []int64{}}

	cols := columns(fakeRecord{})
	if want := []string{"case", "rate", "ok", "p99", "match", "wall"}; !slices.Equal(cols, want) {
		t.Errorf("columns = %q, want %q", cols, want)
	}
	if got, want := row(one, cols), []string{`one "q"`, "15000/s", "3/4", "12.3 us", "match=true", "0.12 s"}; !slices.Equal(got, want) {
		t.Errorf("row = %q, want %q", got, want)
	}
	if got, want := row(fakeTail{P99: sim.Microsecond}, cols), []string{"", "", "", "1.0 us", "", ""}; !slices.Equal(got, want) {
		t.Errorf("row under another record's columns = %q, want %q", got, want)
	}

	dir := t.TempDir()
	log := sweepLog[fakeRecord]{
		sweep:   "fakesweep",
		results: []fakeRecord{one, two},
		reports: []*analysis.Report{{Verdict: "limiting resource: the fixture"}, {Verdict: "the last cell"}},
	}
	a := artifact{
		header:  [][2]string{{"rates_per_s", text("%.0f", []float64{15000, 3e4})}},
		listKey: "cases",
		extra:   [][2]string{{"extra", object(fakeTail{Shed: 1}, "aside")}},
	}
	if err := log.write(dir, a); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_fake.json")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "benchmark": "vmmc-fakesweep",
  "rates_per_s": [15000, 30000],
  "cases": [
    {"case": "one \"q\"", "rate": 15000, "ok": 3, "match": true, "p99_us": 12.345, "shed": 2, "frac": 0.7500, "mb_s": 45.10, "hot": [1, 2, 3], "wall_s": 0.123, "verdict": "limiting resource: the fixture"},
    {"case": "two", "rate": 0, "ok": 0, "match": false, "p99_us": 0.000, "shed": 0, "frac": 0.0000, "mb_s": 0.00, "hot": [], "wall_s": 0.000, "verdict": "the last cell"}
  ],
  "extra": {"p99_us": 0.000, "shed": 1, "verdict": "aside"},
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
	var parsed map[string]any
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Errorf("artifact does not parse as JSON: %v", err)
	}
	if err := log.write(path, a); err == nil || !strings.Contains(err.Error(), "bench: fake artifact") {
		t.Errorf("directory that is a file: err = %v, want a wrapped fake-artifact error", err)
	}
}
