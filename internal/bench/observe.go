package bench

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Observability configures trace and metrics artifact capture for the
// harness. Experiments build their own engines (sometimes several, for a
// sweep of configurations), so the configuration is applied at every
// engine construction and artifacts are captured when each run completes.
// When an experiment runs more than one engine, the last run's artifacts
// win — runs are deterministic, so the files are still reproducible
// byte for byte.
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
	// DisableAnalysis turns the always-on bottleneck analyzer off. The
	// analyzer is a streaming trace sink with no effect on virtual time,
	// so it defaults to on: every experiment ends with a report.
	DisableAnalysis bool
	// VerifySkips turns on sim.Engine.VerifySkips in every engine: a spin
	// predicate that reads outside its watch panics instead of silently
	// missing a change. The golden test sets it; results are unaffected.
	VerifySkips bool
}

var (
	obs          Observability
	lastSummary  string
	curAnalyzer  *analysis.Analyzer
	lastAnalysis *analysis.Report
)

// SetObservability installs the artifact configuration used by all
// subsequent experiment runs. A zero value turns capture off.
func SetObservability(o Observability) { obs = o }

// observedEngine is the engine constructor every experiment uses: a fresh
// engine with the trace collector armed when a trace artifact was
// requested, and the bottleneck analyzer subscribed as a streaming sink
// unless analysis is disabled.
func observedEngine() *sim.Engine {
	eng := sim.NewEngine()
	if obs.VerifySkips {
		eng.VerifySkips()
	}
	if obs.TracePath != "" {
		eng.Trace().Enable(obs.TraceCapacity)
	}
	if !obs.DisableAnalysis {
		curAnalyzer = analysis.NewAnalyzer(analysis.Config{})
		eng.Trace().Subscribe(curAnalyzer)
	}
	return eng
}

// markPhase splits the analysis attribution window: busy time and waits
// after this instant are credited to the named phase. Experiments call it
// at their interesting boundaries (setup done, exchange started, drain).
func markPhase(eng *sim.Engine, name string) {
	eng.TraceInstant("bench", "phase", name)
}

// capture records the run's metrics summary and writes the configured
// artifact files. Called after every experiment run, whether or not
// artifacts were requested — the summary is cheap and always available
// via LastMetricsSummary.
func capture(eng *sim.Engine) error {
	snap := eng.MetricsSnapshot()
	lastSummary = summarize(snap)
	if curAnalyzer != nil {
		lastAnalysis = curAnalyzer.Finalize(snap.NowNS, snap)
		eng.Trace().Unsubscribe(curAnalyzer)
		curAnalyzer = nil
		if obs.AnalysisPath != "" {
			f, err := os.Create(obs.AnalysisPath)
			if err != nil {
				return fmt.Errorf("bench: analysis artifact: %w", err)
			}
			werr := lastAnalysis.WriteJSON(f, "")
			if werr == nil {
				_, werr = fmt.Fprintln(f)
			}
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("bench: analysis artifact: %w", werr)
			}
		}
	}
	if obs.TracePath != "" {
		f, err := os.Create(obs.TracePath)
		if err != nil {
			return fmt.Errorf("bench: trace artifact: %w", err)
		}
		werr := trace.WriteChromeTrace(f, eng.Trace().Events(), eng.Trace().Dropped())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("bench: trace artifact: %w", werr)
		}
	}
	if obs.MetricsPath != "" {
		f, err := os.Create(obs.MetricsPath)
		if err != nil {
			return fmt.Errorf("bench: metrics artifact: %w", err)
		}
		werr := snap.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("bench: metrics artifact: %w", werr)
		}
	}
	return nil
}

// LastMetricsSummary returns a short human-readable digest of the most
// recently completed run's metrics: DMA engine utilizations, SRAM
// high-water marks, TLB hit/miss counts, and per-link byte counts. Empty
// until an experiment has run.
func LastMetricsSummary() string { return lastSummary }

// LastAnalysis returns the bottleneck report of the most recently
// completed run (the last engine captured — for sweeps, the last
// configuration). Nil until an experiment has run or when analysis is
// disabled.
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
