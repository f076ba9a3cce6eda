package analysis_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// feed replays a canned event stream into a fresh analyzer and finalizes
// it at now.
func feed(t *testing.T, evs []trace.Event, now int64, snap trace.Snapshot) *analysis.Report {
	t.Helper()
	a := analysis.NewAnalyzer(analysis.Config{})
	for _, ev := range evs {
		a.Consume(ev)
	}
	return a.Finalize(now, snap)
}

func begin(tm int64, comp, cat, name string) trace.Event {
	return trace.Event{T: tm, Ph: trace.PhaseBegin, Component: comp, Category: cat, Name: name}
}

func end(tm int64, comp, cat, name string) trace.Event {
	return trace.Event{T: tm, Ph: trace.PhaseEnd, Component: comp, Category: cat, Name: name}
}

func findClass(t *testing.T, rep *analysis.Report, class string) analysis.ResourceStat {
	t.Helper()
	for _, rs := range rep.Resources {
		if rs.Class == class {
			return rs
		}
	}
	t.Fatalf("report has no class %q (have %d resources)", class, len(rep.Resources))
	return analysis.ResourceStat{}
}

func TestEmptyRunProducesValidReport(t *testing.T) {
	rep := feed(t, nil, 1000, trace.Snapshot{})
	if len(rep.Resources) != 0 || len(rep.Occupancies) != 0 {
		t.Fatalf("empty run produced %d resources, %d occupancies", len(rep.Resources), len(rep.Occupancies))
	}
	if !strings.Contains(rep.Verdict, "no contended resource activity") {
		t.Errorf("empty-run verdict = %q", rep.Verdict)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "run" {
		t.Errorf("empty run phases = %+v, want the implicit run phase", rep.Phases)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, ""); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "{") || !strings.HasSuffix(buf.String(), "}") {
		t.Errorf("empty-run JSON malformed: %q", buf.String())
	}
}

func TestZeroDurationSpans(t *testing.T) {
	evs := []trace.Event{
		begin(100, "dma:lanai0:host", "res", "held"),
		end(100, "dma:lanai0:host", "res", "held"), // zero-duration grant
		begin(200, "dma:lanai0:host", "res", "wait"),
		end(200, "dma:lanai0:host", "res", "wait"), // zero-duration wait
	}
	rep := feed(t, evs, 1000, trace.Snapshot{})
	rs := findClass(t, rep, "host-dma")
	if rs.BusyFrac != 0 || rs.PeakBucketFrac != 0 {
		t.Errorf("zero-duration span counted busy: frac %v, peak %v", rs.BusyFrac, rs.PeakBucketFrac)
	}
	if rs.Grants != 1 {
		t.Errorf("grants = %d, want 1 (zero-duration grants still count)", rs.Grants)
	}
	if rs.WaitCount != 1 || rs.WaitTotalNS != 0 || rs.WaitMaxNS != 0 {
		t.Errorf("zero-duration wait: count %d, total %d, max %d", rs.WaitCount, rs.WaitTotalNS, rs.WaitMaxNS)
	}
}

func TestNestedSpansUnionCounted(t *testing.T) {
	// A dma transfer span nested inside the res held span on the same
	// component must not double-count busy time.
	evs := []trace.Event{
		begin(0, "dma:lanai0:host", "res", "held"),
		begin(100, "dma:lanai0:host", "dma", "transfer"),
		end(400, "dma:lanai0:host", "dma", "transfer"),
		end(500, "dma:lanai0:host", "res", "held"),
	}
	rep := feed(t, evs, 1000, trace.Snapshot{})
	rs := findClass(t, rep, "host-dma")
	if rs.BusyFrac != 0.5 {
		t.Errorf("busy frac = %v, want 0.5 (union of nested spans)", rs.BusyFrac)
	}
}

func TestWaitPairingFIFO(t *testing.T) {
	// Two waiters queue; FIFO pairing credits the first End to the first
	// Begin: waits of 300 ns and 500 ns, not 400/400.
	evs := []trace.Event{
		begin(0, "bus:pci:node0", "res", "wait"),
		begin(200, "bus:pci:node0", "res", "wait"),
		end(300, "bus:pci:node0", "res", "wait"),
		end(700, "bus:pci:node0", "res", "wait"),
	}
	rep := feed(t, evs, 1000, trace.Snapshot{})
	rs := findClass(t, rep, "bus-pci")
	if rs.WaitCount != 2 || rs.WaitTotalNS != 800 {
		t.Errorf("waits = %d totaling %d ns, want 2 totaling 800", rs.WaitCount, rs.WaitTotalNS)
	}
	if rs.WaitMaxNS != 500 {
		t.Errorf("max wait = %d, want 500 (FIFO pairing)", rs.WaitMaxNS)
	}
	if rs.QueueMax != 2 {
		t.Errorf("max queue depth = %d, want 2", rs.QueueMax)
	}
}

func TestPendingWaitCensoredAtFinalize(t *testing.T) {
	evs := []trace.Event{
		begin(600, "bus:pci:node0", "res", "wait"),
	}
	rep := feed(t, evs, 1000, trace.Snapshot{})
	rs := findClass(t, rep, "bus-pci")
	if rs.WaitCount != 1 || rs.WaitTotalNS != 400 {
		t.Errorf("censored wait = %d totaling %d ns, want 1 totaling 400", rs.WaitCount, rs.WaitTotalNS)
	}
}

func TestPhaseAttribution(t *testing.T) {
	// One span entirely in phase "a", one crossing the a->b boundary.
	evs := []trace.Event{
		{T: 0, Ph: trace.PhaseInstant, Component: "bench", Category: "phase", Name: "a"},
		begin(100, "node0/lcp", "lcp", "dispatch"),
		end(200, "node0/lcp", "lcp", "dispatch"),
		begin(300, "node0/lcp", "lcp", "dispatch"),
		{T: 400, Ph: trace.PhaseInstant, Component: "bench", Category: "phase", Name: "b"},
		end(600, "node0/lcp", "lcp", "dispatch"),
	}
	rep := feed(t, evs, 1000, trace.Snapshot{})
	// Implicit "run" phase [0,0), then a [0,400), then b [400,1000).
	if len(rep.Phases) != 3 || rep.Phases[1].Name != "a" || rep.Phases[2].Name != "b" {
		t.Fatalf("phases = %+v", rep.Phases)
	}
	rs := findClass(t, rep, "lcp")
	if len(rs.PerPhase) != 3 {
		t.Fatalf("per-phase entries = %d, want 3", len(rs.PerPhase))
	}
	// Phase a: 100 ns complete span + 100 ns of the crossing span over a
	// 400 ns phase = 0.5. Phase b: 200 ns over 600 ns = 1/3.
	if got := rs.PerPhase[1].BusyFrac; got != 0.5 {
		t.Errorf("phase a busy frac = %v, want 0.5 (boundary flush)", got)
	}
	if got := rs.PerPhase[2].BusyFrac; got != float64(200)/600 {
		t.Errorf("phase b busy frac = %v, want 1/3", got)
	}
}

func TestOccupancyNormalization(t *testing.T) {
	caps := analysis.Config{}
	evs := []trace.Event{
		{T: 0, Ph: trace.PhaseCounter, Component: "lanai0", Category: "sram", Value: 128 << 10},
		{T: 500, Ph: trace.PhaseCounter, Component: "lanai0", Category: "sram", Value: 0},
		{T: 0, Ph: trace.PhaseCounter, Component: "lanai0", Category: "rl", Name: "window_occupancy", Value: 0.75},
	}
	a := analysis.NewAnalyzer(caps)
	for _, ev := range evs {
		a.Consume(ev)
	}
	rep := a.Finalize(1000, trace.Snapshot{})
	if len(rep.Occupancies) != 2 {
		t.Fatalf("occupancy tracks = %d, want 2 (sram, rl-window)", len(rep.Occupancies))
	}
	for _, o := range rep.Occupancies {
		switch o.Class {
		case "sram":
			// 128 KB of the default 256 KB for half the window.
			if o.PeakFrac != 0.5 || o.MeanFrac != 0.25 {
				t.Errorf("sram occupancy peak %v mean %v, want 0.5 / 0.25", o.PeakFrac, o.MeanFrac)
			}
		case "rl-window":
			if o.PeakFrac != 0.75 {
				t.Errorf("rl window peak = %v, want 0.75", o.PeakFrac)
			}
		}
	}
}

func TestRanking(t *testing.T) {
	evs := []trace.Event{
		// host-dma: 80% busy. lcp: 40% busy but huge wait attribution.
		begin(0, "dma:lanai0:host", "res", "held"),
		end(800, "dma:lanai0:host", "res", "held"),
		begin(0, "node0/lcp", "lcp", "loop"),
		end(400, "node0/lcp", "lcp", "loop"),
	}
	rep := feed(t, evs, 1000, trace.Snapshot{})
	if rep.Resources[0].Class != "host-dma" || rep.Resources[1].Class != "lcp" {
		t.Errorf("ranking = %s, %s; want host-dma first", rep.Resources[0].Class, rep.Resources[1].Class)
	}
	if !strings.Contains(rep.Verdict, "host DMA") {
		t.Errorf("verdict does not name the limiting resource: %q", rep.Verdict)
	}
}

// TestReportJSONDeterministic double-feeds the same synthetic stream and
// requires byte-identical JSON — the unit-level version of the goldens'
// embedded reports.
func TestReportJSONDeterministic(t *testing.T) {
	evs := []trace.Event{
		begin(0, "dma:lanai0:host", "res", "held"),
		begin(50, "dma:lanai0:host", "res", "wait"),
		end(300, "dma:lanai0:host", "res", "held"),
		end(300, "dma:lanai0:host", "res", "wait"),
		{T: 400, Ph: trace.PhaseInstant, Component: "bench", Category: "phase", Name: "drain"},
		begin(450, "myri:nic0:tx", "res", "held"),
		end(700, "myri:nic0:tx", "res", "held"),
		{T: 500, Ph: trace.PhaseCounter, Component: "lanai0", Category: "sram", Value: 4096},
	}
	snap := trace.Snapshot{Counters: []trace.CounterValue{
		{Name: "dma:lanai0:host/bytes", Value: 1 << 16},
		{Name: "nic0/bytes_injected", Value: 1 << 14},
	}}
	var out [2]bytes.Buffer
	for i := range out {
		rep := feed(t, evs, 1000, snap)
		if err := rep.WriteJSON(&out[i], "  "); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("double-feed JSON drifted:\n%s\nvs\n%s", out[0].String(), out[1].String())
	}
	if rate := findClass(t, feed(t, evs, 1000, snap), "host-dma").RateFrac; rate <= 0 {
		t.Errorf("achieved rate fraction = %v, want > 0 from snapshot bytes", rate)
	}
}
