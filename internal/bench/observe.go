package bench

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Observability configures trace and metrics artifact capture for the
// harness. Every run is a cell with an engine of its own (an experiment
// may run several, for a sweep of configurations), so the configuration
// is applied at every cell's construction and artifacts are captured when
// its run completes. When an experiment runs more than one cell, the last
// run's artifacts win — runs are deterministic, so the files are still
// reproducible byte for byte.
type Observability struct {
	// TracePath, when non-empty, arms each engine's trace collector and
	// writes a Chrome trace_event JSON file here after every run.
	TracePath string
	// MetricsPath, when non-empty, writes the metrics snapshot JSON here
	// after every run.
	MetricsPath string
	// TraceCapacity bounds the trace ring buffer in events; non-positive
	// selects trace.DefaultCapacity.
	TraceCapacity int
	// AnalysisPath, when non-empty, writes the bottleneck analysis
	// report JSON here after every run (last run wins, like the other
	// artifacts).
	AnalysisPath string
	// VerifySkips turns on sim.Engine.VerifySkips in every engine: a spin
	// predicate that reads outside its watch panics instead of silently
	// missing a change. The golden test sets it; results are unaffected.
	VerifySkips bool
	// VerifyIntact turns on myrinet.Network.VerifyIntact in every fabric:
	// a packet nobody damaged is still checked against the CRC of the
	// bytes it was injected with, so a sender that writes into a buffer it
	// has handed to the fabric panics instead of going unnoticed. The
	// golden test sets it; results are unaffected.
	VerifyIntact bool
}

// lastSummary and lastAnalysis are written by capture and read only
// through LastMetricsSummary and LastAnalysis, for vmmcbench's -trace and
// -analyze output; a cell hands its own report to the code that ran it.
var (
	obs          Observability
	lastSummary  string
	lastAnalysis *analysis.Report
)

// SetObservability installs the artifact configuration used by all
// subsequent experiment runs. A zero value turns capture off.
func SetObservability(o Observability) { obs = o }

// observedEngine is the engine constructor behind every cell: a fresh
// engine with the trace collector armed when a trace artifact was
// requested, and a bottleneck analyzer subscribed as a streaming sink —
// it has no effect on virtual time, so every run ends with a report.
func observedEngine() (*sim.Engine, *analysis.Analyzer) {
	eng := sim.NewEngine()
	if obs.VerifySkips {
		eng.VerifySkips()
	}
	if obs.TracePath != "" {
		eng.Trace().Enable(obs.TraceCapacity)
	}
	an := analysis.NewAnalyzer(analysis.Config{})
	eng.Trace().Subscribe(an)
	return eng, an
}

// verifyFabric applies Observability.VerifyIntact to a fabric a cell built.
func verifyFabric(n *myrinet.Network) {
	if obs.VerifyIntact {
		n.VerifyIntact()
	}
}

// markPhase splits the analysis attribution window: busy time and waits
// after this instant are credited to the named phase. Experiments call it
// at their interesting boundaries (setup done, exchange started, drain).
func markPhase(eng *sim.Engine, name string) {
	eng.TraceInstant("bench", "phase", name)
}

// capture finalizes a completed run: it records the metrics summary and
// the analyzer's report, writes the configured artifact files, and
// returns the report and the metrics snapshot it was built from. Called
// after every run, whether or not artifacts were requested — the summary
// is cheap and always available via LastMetricsSummary.
func capture(eng *sim.Engine, an *analysis.Analyzer) (*analysis.Report, trace.Snapshot, error) {
	snap := eng.MetricsSnapshot()
	lastSummary = summarize(snap)
	rep := an.Finalize(snap.NowNS, snap)
	eng.Trace().Unsubscribe(an)
	lastAnalysis = rep
	err := writeArtifact("analysis", obs.AnalysisPath, func(w io.Writer) error {
		if err := rep.WriteJSON(w, ""); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	})
	if err == nil {
		err = writeArtifact("trace", obs.TracePath, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, eng.Trace().Events(), eng.Trace().Dropped())
		})
	}
	if err == nil {
		err = writeArtifact("metrics", obs.MetricsPath, snap.WriteJSON)
	}
	return rep, snap, err
}

// counterNow reads one counter mid-run, from a fresh snapshot of eng's
// registry: a read never creates a counter, so a name nothing registered
// reads zero and stays out of the artifacts.
func counterNow(eng *sim.Engine, name string) int64 {
	v, _ := eng.MetricsSnapshot().Counter(name)
	return v
}

// writeArtifact creates the file at path, when one was asked for, and
// fills it with write; an error names the artifact.
func writeArtifact(what, path string, write func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("bench: %s artifact: %w", what, err)
	}
	return nil
}

// LastMetricsSummary returns a short human-readable digest of the most
// recently completed run's metrics: DMA engine utilizations, SRAM
// high-water marks, TLB hit/miss counts, and per-link byte counts. Empty
// until an experiment has run.
func LastMetricsSummary() string { return lastSummary }

// LastAnalysis returns the bottleneck report of the most recently
// completed run (the last cell captured — for sweeps, the last
// configuration). Nil until an experiment has run.
func LastAnalysis() *analysis.Report { return lastAnalysis }

// summarize renders the headline metrics of a snapshot. Snapshot sections
// are sorted by name, so the output is deterministic.
func summarize(s trace.Snapshot) string {
	var b strings.Builder
	b.WriteString("metrics summary:\n")
	for _, u := range s.Utilizations {
		if strings.HasPrefix(u.Name, "dma:") && strings.HasSuffix(u.Name, "/utilization") {
			fmt.Fprintf(&b, "  %-42s %5.1f%% busy (%d transfers granted)\n",
				u.Name, u.Value*100, u.Grants)
		}
	}
	for _, g := range s.Gauges {
		if strings.HasSuffix(g.Name, "/sram_used_bytes") {
			fmt.Fprintf(&b, "  %-42s high water %.0f bytes\n", g.Name, g.High)
		}
	}
	for _, c := range s.Counters {
		switch {
		case strings.HasSuffix(c.Name, "/tlb_hits"),
			strings.HasSuffix(c.Name, "/tlb_misses"),
			strings.HasSuffix(c.Name, "/tlb_refills"):
			fmt.Fprintf(&b, "  %-42s %d\n", c.Name, c.Value)
		}
	}
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "nic") &&
			(strings.HasSuffix(c.Name, "/bytes_injected") || strings.HasSuffix(c.Name, "/bytes_delivered")) {
			fmt.Fprintf(&b, "  %-42s %d\n", c.Name, c.Value)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
