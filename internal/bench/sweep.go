package bench

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/sim"
)

// errConfig marks a sweep configuration rejected before any cell ran.
// The counts arrive from vmmcbench's flags, so each sweep checks them.
var errConfig = errors.New("bad sweep configuration")

// doubleRun is the sweeps' determinism check: it runs a cell twice on
// fresh engines and fails, naming the sweep and the cell, if the two
// results differ under same or the two bottleneck reports differ as
// JSON. It returns the second run and its report. Wall-clock sweeps
// pass a same that compares only their virtual-time fields; every other
// sweep passes equal.
func doubleRun[R any](sweep, cell string, run func() (R, *analysis.Report, error), same func(a, b R) bool) (R, *analysis.Report, error) {
	var zero R
	first, firstRep, err := run()
	if err != nil {
		return zero, nil, err
	}
	again, rep, err := run()
	if err != nil {
		return zero, nil, err
	}
	if !same(first, again) {
		return zero, nil, fmt.Errorf("bench: %s determinism drift in %q: %+v vs %+v", sweep, cell, first, again)
	}
	if analysisJSON(rep, "") != analysisJSON(firstRep, "") {
		return zero, nil, fmt.Errorf("bench: %s analysis drift in %q", sweep, cell)
	}
	return again, rep, nil
}

// equal is doubleRun's same for results that are deterministic in every
// field.
func equal[R comparable](a, b R) bool { return a == b }

// sweepLog is what a sweep accumulates cell by cell: the results its
// acceptance checks read, the reports its artifact embeds, and the table
// it prints.
type sweepLog[R any] struct {
	sweep string             // names the sweep in drift errors
	same  func(a, b R) bool  // doubleRun's equality
	row   func(r R) []string // renders a result as its table row
	note  bool               // the table carries every cell's verdict note
	t     *Table             // the sweep's table; record appends to it

	results []R
	reports []*analysis.Report
}

// record runs one cell — twice, through doubleRun, when asked — and files
// its result, report, table row and verdict note.
func (l *sweepLog[R]) record(label string, twice bool, run func() (R, *analysis.Report, error)) error {
	do := run
	if twice {
		do = func() (R, *analysis.Report, error) { return doubleRun(l.sweep, label, run, l.same) }
	}
	r, rep, err := do()
	if err != nil {
		return err
	}
	l.results = append(l.results, r)
	l.reports = append(l.reports, rep)
	l.t.Rows = append(l.t.Rows, l.row(r))
	if l.note {
		l.t.Notes = append(l.t.Notes, analysisNote(label, rep))
	}
	return nil
}

// artifact is a sweep's machine-readable BENCH_*.json file. Members are
// written in a fixed order with pre-rendered values, so a sweep whose
// values are all virtual-time derived gets a byte-identical file on
// every run.
type artifact struct {
	what    string             // names the artifact in errors: "heal", "serve", ...
	header  [][2]string        // top-level members ahead of the list: key, rendered value
	listKey string             // "cases" or "configs"
	cases   []string           // one object per cell (at least one): its members, without braces or verdict
	reports []*analysis.Report // one per cell; supplies each verdict and the embedded analysis
	extra   string             // rendered member lines between the list and the analysis
}

// write emits the artifact: the header, the cell list with each cell's
// analysis verdict appended, any extra members, and the last cell's
// full analysis report embedded. An empty path (no -*-out flag) writes
// nothing.
func (a artifact) write(path string) error {
	return writeArtifact(a.what, path, func(w io.Writer) error {
		var b strings.Builder
		b.WriteString("{\n")
		for _, kv := range a.header {
			fmt.Fprintf(&b, "  %q: %s,\n", kv[0], kv[1])
		}
		fmt.Fprintf(&b, "  %q: [\n", a.listKey)
		for i, c := range a.cases {
			comma := ","
			if i == len(a.cases)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "    {%s, \"verdict\": %q}%s\n", c, a.reports[i].Verdict, comma)
		}
		b.WriteString("  ],\n")
		b.WriteString(a.extra)
		fmt.Fprintf(&b, "  \"analysis\": %s\n", analysisJSON(a.reports[len(a.reports)-1], "  ")[2:])
		b.WriteString("}\n")
		_, err := io.WriteString(w, b.String())
		return err
	})
}

// floatList renders a JSON array of whole-number floats.
func floatList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.0f", v)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// quantile picks the num/den quantile (50/100 = p50, 999/1000 = p99.9)
// of an ascending latency list by the nearest-rank method.
func quantile(sorted []sim.Time, num, den int) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := (num*len(sorted) + den - 1) / den
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// loadResult is the part of a serving-tier cell every open-loop run
// reports, whichever tier served it: outcome counts, send counters and
// latency quantiles.
type loadResult struct {
	Offered  int64
	OK       int64
	Late     int64
	Rejected int64
	Expired  int64
	TimedOut int64
	Dropped  int64
	Errors   int64

	Sends        int64
	Retries      int64
	BudgetDenied int64

	P50     sim.Time // OK (in-deadline) request latency
	P99     sim.Time
	P999    sim.Time
	ShedP99 sim.Time // latency to a typed rejection: the fail-fast metric

	GoodputFrac   float64 // OK / Offered
	Elapsed       sim.Time
	TransportErrs int64
}

// fillLoadResult distills an open-loop run's stats.
func fillLoadResult(stats *serve.Stats, elapsed sim.Time, transportErrs int64) loadResult {
	l := loadResult{
		Offered: stats.Offered, OK: stats.OK, Late: stats.Late, Rejected: stats.Rejected,
		Expired: stats.Expired, TimedOut: stats.TimedOut, Dropped: stats.Dropped, Errors: stats.Errors,
		Sends: stats.Sends, Retries: stats.Retries, BudgetDenied: stats.BudgetDenied,
		P50:     quantile(stats.LatOK, 50, 100),
		P99:     quantile(stats.LatOK, 99, 100),
		P999:    quantile(stats.LatOK, 999, 1000),
		ShedP99: quantile(stats.LatShed, 99, 100),
		Elapsed: elapsed, TransportErrs: transportErrs,
	}
	if stats.Offered > 0 {
		l.GoodputFrac = float64(stats.OK) / float64(stats.Offered)
	}
	return l
}

// countsJSON renders the outcome and send counters as artifact members.
func (l loadResult) countsJSON() string {
	return fmt.Sprintf("\"offered\": %d, \"ok\": %d, \"late\": %d, \"rejected\": %d, \"expired\": %d, "+
		"\"timed_out\": %d, \"dropped\": %d, \"errors\": %d, "+
		"\"sends\": %d, \"retries\": %d, \"budget_denied\": %d",
		l.Offered, l.OK, l.Late, l.Rejected, l.Expired,
		l.TimedOut, l.Dropped, l.Errors,
		l.Sends, l.Retries, l.BudgetDenied)
}

// tailJSON renders the latency quantiles and run totals as the artifact
// members that close a serving-tier cell.
func (l loadResult) tailJSON() string {
	return fmt.Sprintf("\"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f, \"shed_p99_us\": %.3f, "+
		"\"goodput_frac\": %.4f, \"elapsed_us\": %.3f, \"transport_errors\": %d",
		l.P50.Micros(), l.P99.Micros(), l.P999.Micros(), l.ShedP99.Micros(),
		l.GoodputFrac, l.Elapsed.Micros(), l.TransportErrs)
}
