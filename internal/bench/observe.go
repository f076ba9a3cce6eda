package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Observability configures trace and metrics artifact capture for a Run.
// Every run is a cell with an engine of its own (an experiment may run
// several, for a sweep of configurations), so the configuration is
// applied at every cell's construction, and the Run keeps what its last
// successful cell produced. The artifact files hold that last cell's
// output and are written once, by WriteArtifacts — runs are
// deterministic, so the files are still reproducible byte for byte.
type Observability struct {
	// TracePath, when non-empty, arms each engine's trace collector;
	// WriteArtifacts writes a Chrome trace_event JSON file here.
	TracePath string
	// MetricsPath, when non-empty, is where WriteArtifacts writes the
	// metrics snapshot JSON.
	MetricsPath string
	// TraceCapacity bounds the trace ring buffer in events; non-positive
	// selects trace.DefaultCapacity.
	TraceCapacity int
	// AnalysisPath, when non-empty, is where WriteArtifacts writes the
	// bottleneck analysis report JSON.
	AnalysisPath string
	// OutDir, when non-empty, is the directory every sweep writes its
	// artifact into, as BENCH_<sweep>.json.
	OutDir string
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

// Run runs experiments, each a method on it. It carries the
// Observability its cells apply and keeps its last successful cell's
// report, metrics snapshot and (when traced) events — not the cell, which
// would keep a finished cluster alive — and the fingerprint of every
// cell's events. Runs share nothing.
type Run struct {
	Observability

	rep     *analysis.Report // nil until a cell has completed
	snap    trace.Snapshot
	events  []trace.Event
	dropped int64
	fp      fingerprint
}

// fingerprint is a trace sink that folds every event of every cell of a
// Run, in emission order, into one 64-bit digest: time, phase, value bits
// and the three strings, a word at a time, and each cell's index where
// the cell begins. Every fold is invertible, so changing one word of one
// event always moves the digest; nothing in it is seeded or read from
// the host.
type fingerprint struct {
	cells, events int64
	sum           uint64
}

func (f *fingerprint) Consume(ev trace.Event) {
	f.events++
	h := mix(mix(mix(f.sum, uint64(ev.T)), uint64(ev.Ph)), math.Float64bits(ev.Value))
	f.sum = mixString(mixString(mixString(h, ev.Component), ev.Category), ev.Name)
}

// mix folds x into h by an odd multiply and an xorshift.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// mixString folds s's length, then its bytes eight at a time.
func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return mix(h, w)
}

// Fingerprint renders the Run's event fingerprint: how many cells it
// built, how many trace events they emitted, and the digest of them all.
func (rn *Run) Fingerprint() string {
	return fmt.Sprintf("fingerprint: %d cells, %d events, %016x", rn.fp.cells, rn.fp.events, rn.fp.sum)
}

// observedEngine is the engine constructor behind every cell: a fresh
// engine with the trace collector armed when a trace artifact was
// requested, and two streaming sinks subscribed — a bottleneck analyzer
// and the Run's fingerprint. Neither has any effect on virtual time, so
// every run ends with a report and every event is fingerprinted.
func (rn *Run) observedEngine() (*sim.Engine, *analysis.Analyzer) {
	eng := sim.NewEngine()
	if rn.VerifySkips {
		eng.VerifySkips()
	}
	if rn.TracePath != "" {
		eng.Trace().Enable(rn.TraceCapacity)
	}
	an := analysis.NewAnalyzer(analysis.Config{})
	eng.Trace().Subscribe(an)
	rn.fp.cells++
	rn.fp.sum = mix(rn.fp.sum, uint64(rn.fp.cells))
	eng.Trace().Subscribe(&rn.fp)
	return eng, an
}

// verifyFabric applies Observability.VerifyIntact to a fabric a cell built.
func (rn *Run) verifyFabric(n *myrinet.Network) {
	if rn.VerifyIntact {
		n.VerifyIntact()
	}
}

// markPhase splits the analysis attribution window: busy time and waits
// after this instant are credited to the named phase. Experiments call it
// at their interesting boundaries (setup done, exchange started, drain).
func markPhase(eng *sim.Engine, name string) {
	eng.TraceInstant("bench", "phase", name)
}

// Report returns the bottleneck report of the Run's last completed cell
// (for sweeps, the last configuration). Nil until a cell has completed.
func (rn *Run) Report() *analysis.Report { return rn.rep }

// WriteArtifacts writes the configured artifact files — analysis report,
// trace, metrics snapshot — from the last completed cell. It writes
// nothing before a cell has completed.
func (rn *Run) WriteArtifacts() error {
	if rn.rep == nil {
		return nil
	}
	err := writeArtifact("analysis", rn.AnalysisPath, func(w io.Writer) error {
		if err := rn.rep.WriteJSON(w, ""); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	})
	if err == nil {
		err = writeArtifact("trace", rn.TracePath, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, rn.events, rn.dropped)
		})
	}
	if err == nil {
		err = writeArtifact("metrics", rn.MetricsPath, rn.snap.WriteJSON)
	}
	return err
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

// Summary returns a short human-readable digest of the last completed
// cell's metrics: DMA engine utilizations, SRAM high-water marks, TLB
// hit/miss counts, and per-link byte counts, in the snapshot's sorted
// name order. Empty until a cell has completed.
func (rn *Run) Summary() string {
	if rn.rep == nil {
		return ""
	}
	s := rn.snap
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
