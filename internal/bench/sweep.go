package bench

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/sim"
)

// errConfig marks a sweep configuration rejected before any cell ran.
// The counts arrive from vmmcbench's flags, so each sweep checks them.
var errConfig = errors.New("bad sweep configuration")

// A record is a sweep cell's result struct, rendered by the encoder
// below from its field tags:
//
//	key:"name,verb"                the field's member in the artifact's case object
//	col:"name[,verb][,after=col]"  the field's column in the sweep's table
//
// A sim.Time renders in microseconds, a slice as a list. A col without a
// verb is the record's one computed column, rendered by its computed
// method; after= places a column out of declaration order. Embedded
// structs render in place, and a hide tag on an embedding drops its
// columns from the table.
type computer interface{ computed() string }

// leaf is one field of a record, its tags parsed.
type leaf struct {
	v            reflect.Value
	key, keyVerb string
	col, colVerb string
	after        string
}

// leaves flattens a record's fields in declaration order.
func leaves(rec reflect.Value) []leaf {
	var out []leaf
	for i := 0; i < rec.NumField(); i++ {
		sf := rec.Type().Field(i)
		if sf.Anonymous {
			sub := leaves(rec.Field(i))
			hidden := strings.Split(sf.Tag.Get("hide"), ",")
			for j := range sub {
				if slices.Contains(hidden, sub[j].col) {
					sub[j].col = ""
				}
			}
			out = append(out, sub...)
			continue
		}
		l := leaf{v: rec.Field(i)}
		var opt string
		l.key, l.keyVerb, _ = splitTag(sf.Tag.Get("key"))
		l.col, l.colVerb, opt = splitTag(sf.Tag.Get("col"))
		l.after = strings.TrimPrefix(opt, "after=")
		out = append(out, l)
	}
	return out
}

func splitTag(tag string) (name, verb, opt string) {
	name, rest, _ := strings.Cut(tag, ",")
	verb, opt, _ = strings.Cut(rest, ",")
	return name, verb, opt
}

// text renders x under a tag's verb.
func text(verb string, x any) string {
	if t, ok := x.(sim.Time); ok {
		return fmt.Sprintf(verb, t.Micros())
	}
	if v := reflect.ValueOf(x); v.Kind() == reflect.Slice {
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = text(verb, v.Index(i).Interface())
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return fmt.Sprintf(verb, x)
}

// object renders a record as its artifact case object, verdict last.
func object(rec any, verdict string) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range leaves(reflect.ValueOf(rec)) {
		if l.key != "" {
			fmt.Fprintf(&b, "%q: %s, ", l.key, text(l.keyVerb, l.v.Interface()))
		}
	}
	fmt.Fprintf(&b, "\"verdict\": %q}", verdict)
	return b.String()
}

// columns lists a record's table columns.
func columns(rec any) []string {
	var cols []string
	ls := leaves(reflect.ValueOf(rec))
	for _, l := range ls {
		if l.col != "" && l.after == "" {
			cols = append(cols, l.col)
		}
	}
	for _, l := range ls {
		if l.col != "" && l.after != "" {
			cols = slices.Insert(cols, slices.Index(cols, l.after)+1, l.col)
		}
	}
	return cols
}

// row renders a record as a table row under cols, which may be another
// record's columns: a column the record has no field for stays blank.
func row(rec any, cols []string) []string {
	out := make([]string, len(cols))
	for _, l := range leaves(reflect.ValueOf(rec)) {
		switch i := slices.Index(cols, l.col); {
		case i < 0:
		case l.colVerb == "":
			out[i] = rec.(computer).computed()
		default:
			out[i] = text(l.colVerb, l.v.Interface())
		}
	}
	return out
}

// sweepLog is what a sweep accumulates cell by cell: the records its
// acceptance checks read, the reports its artifact embeds, and the table
// it prints.
type sweepLog[R any] struct {
	sweep string // names the sweep's artifact
	note  bool   // the table carries every cell's verdict note
	t     *Table // the sweep's table; record appends to it

	results []R
	reports []*analysis.Report
}

// record runs one cell and files its record, report, table row and
// verdict note.
func (l *sweepLog[R]) record(label string, run func() (R, *analysis.Report, error)) error {
	r, rep, err := run()
	if err != nil {
		return err
	}
	l.results = append(l.results, r)
	l.reports = append(l.reports, rep)
	l.t.Rows = append(l.t.Rows, row(r, l.t.Columns))
	if l.note {
		l.t.Notes = append(l.t.Notes, analysisNote(label, rep))
	}
	return nil
}

// artifact is what a sweep's machine-readable BENCH_*.json file holds
// besides its cells. Members are written in a fixed order with
// pre-rendered values, so a sweep whose values are all virtual-time
// derived gets a byte-identical file on every run.
type artifact struct {
	header  [][2]string // top-level members after the benchmark's name: key, rendered value
	listKey string      // "cases" or "configs"
	extra   [][2]string // members between the list and the analysis
}

// write emits the sweep's artifact a into dir as BENCH_<sweep>.json: the
// benchmark's name ("vmmc-" and the sweep's), the header, one case object
// per recorded cell (at least one), any extra members, and the last cell's
// full analysis report embedded. An empty dir (no -out flag) writes
// nothing.
func (l *sweepLog[R]) write(dir string, a artifact) error {
	if dir == "" {
		return nil
	}
	short := strings.TrimSuffix(l.sweep, "sweep")
	return writeArtifact(short, filepath.Join(dir, "BENCH_"+short+".json"), func(w io.Writer) error {
		var b strings.Builder
		fmt.Fprintf(&b, "{\n  \"benchmark\": \"vmmc-%s\",\n", l.sweep)
		for _, kv := range a.header {
			fmt.Fprintf(&b, "  %q: %s,\n", kv[0], kv[1])
		}
		fmt.Fprintf(&b, "  %q: [\n", a.listKey)
		for i, r := range l.results {
			comma := ","
			if i == len(l.results)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "    %s%s\n", object(r, l.reports[i].Verdict), comma)
		}
		b.WriteString("  ],\n")
		for _, kv := range a.extra {
			fmt.Fprintf(&b, "  %q: %s,\n", kv[0], kv[1])
		}
		fmt.Fprintf(&b, "  \"analysis\": %s\n", analysisJSON(l.reports[len(l.reports)-1], "  ")[2:])
		b.WriteString("}\n")
		_, err := io.WriteString(w, b.String())
		return err
	})
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

// loadCounts and loadTail are what every open-loop serving cell reports,
// whichever tier served it: outcome and send counts first, latency
// quantiles and run totals last, with the tier's own fields between.
type loadCounts struct {
	Offered  int64 `key:"offered,%d"`
	OK       int64 `key:"ok,%d" col:"ok,%d"`
	Late     int64 `key:"late,%d" col:"late,%d"`
	Rejected int64 `key:"rejected,%d" col:"rej,%d"`
	Expired  int64 `key:"expired,%d" col:"exp,%d"`
	TimedOut int64 `key:"timed_out,%d" col:"t/o,%d"`
	Dropped  int64 `key:"dropped,%d" col:"drop,%d"`
	Errors   int64 `key:"errors,%d"`

	Sends        int64 `key:"sends,%d"`
	Retries      int64 `key:"retries,%d"`
	BudgetDenied int64 `key:"budget_denied,%d"`
}

type loadTail struct {
	P50     sim.Time `key:"p50_us,%.3f" col:"p50,%.1f us"` // OK (in-deadline) request latency
	P99     sim.Time `key:"p99_us,%.3f" col:"p99,%.1f us"`
	P999    sim.Time `key:"p999_us,%.3f" col:"p999,%.1f us"`
	ShedP99 sim.Time `key:"shed_p99_us,%.3f" col:"shed p99,%.1f us"` // latency to a typed rejection: the fail-fast metric

	GoodputFrac   float64  `key:"goodput_frac,%.4f" col:"goodput"` // OK / Offered
	Elapsed       sim.Time `key:"elapsed_us,%.3f"`
	TransportErrs int64    `key:"transport_errors,%d"`
}

// computed renders the goodput column as a percentage.
func (l loadTail) computed() string { return fmt.Sprintf("%.1f%%", l.GoodputFrac*100) }

// fillLoad distills an open-loop run's stats.
func fillLoad(stats *serve.Stats, elapsed sim.Time, transportErrs int64) (loadCounts, loadTail) {
	c := loadCounts{
		Offered: stats.Offered, OK: stats.OK, Late: stats.Late, Rejected: stats.Rejected,
		Expired: stats.Expired, TimedOut: stats.TimedOut, Dropped: stats.Dropped, Errors: stats.Errors,
		Sends: stats.Sends, Retries: stats.Retries, BudgetDenied: stats.BudgetDenied,
	}
	t := loadTail{
		P50:     quantile(stats.LatOK, 50, 100),
		P99:     quantile(stats.LatOK, 99, 100),
		P999:    quantile(stats.LatOK, 999, 1000),
		ShedP99: quantile(stats.LatShed, 99, 100),
		Elapsed: elapsed, TransportErrs: transportErrs,
	}
	if stats.Offered > 0 {
		t.GoodputFrac = float64(stats.OK) / float64(stats.Offered)
	}
	return c, t
}

// admitCounts are a tier's admission counters summed over its servers.
type admitCounts struct {
	ShedArrive int64 `key:"shed_arrive,%d"`
	ShedServe  int64 `key:"shed_serve,%d"`
	DepthPeak  int   `key:"depth_peak,%d"`
}

func (a *admitCounts) add(c serve.AdmissionCounters) {
	a.ShedArrive += c.ShedArrive
	a.ShedServe += c.ShedServe
	a.DepthPeak = max(a.DepthPeak, c.DepthPeak)
}
