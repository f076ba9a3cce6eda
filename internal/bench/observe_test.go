package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// runSmallObserved runs a short pair workload with artifact capture into
// the given paths and returns the artifact bytes and the metrics summary.
func runSmallObserved(t *testing.T, tracePath, metricsPath string) (traceJSON, metricsJSON []byte, summary string) {
	t.Helper()
	rn := &Run{Observability: Observability{TracePath: tracePath, MetricsPath: metricsPath}}
	err := rn.RunPair(vmmc.Options{}, 64<<10, func(p *sim.Proc, pr *Pair) error {
		if _, err := pr.PingPongLatency(p, 4, 5); err != nil {
			return err
		}
		if _, err := pr.OneWayBandwidth(p, 64<<10, 2); err != nil {
			return err
		}
		return nil
	})
	if err == nil {
		err = rn.WriteArtifacts()
	}
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	metricsJSON, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	return traceJSON, metricsJSON, rn.Summary()
}

// TestArtifactsDeterministic runs the same experiment twice and demands
// byte-identical trace and metrics artifacts: events carry only virtual
// time, so nothing about the host leaks into the files.
func TestArtifactsDeterministic(t *testing.T) {
	dir := t.TempDir()
	t1, m1, sum := runSmallObserved(t, filepath.Join(dir, "t1.json"), filepath.Join(dir, "m1.json"))
	t2, m2, _ := runSmallObserved(t, filepath.Join(dir, "t2.json"), filepath.Join(dir, "m2.json"))
	if !bytes.Equal(t1, t2) {
		t.Error("trace artifacts differ between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics artifacts differ between identical runs")
	}
	if len(t1) == 0 || len(m1) == 0 {
		t.Fatal("empty artifact")
	}

	var traceObj struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(t1, &traceObj); err != nil {
		t.Fatalf("trace artifact is not valid JSON: %v", err)
	}
	if len(traceObj.TraceEvents) == 0 {
		t.Error("trace artifact holds no events")
	}
	if err := json.Unmarshal(m1, &map[string]any{}); err != nil {
		t.Fatalf("metrics artifact is not valid JSON: %v", err)
	}
	for _, want := range []string{
		"dma:lanai0:host/utilization",
		"lanai0/sram_used_bytes",
		"node0/tlb_hits",
		"node0/tlb_misses",
		"nic0/bytes_injected",
		"nic1/bytes_delivered",
	} {
		if !strings.Contains(string(m1), `"`+want+`"`) {
			t.Errorf("metrics artifact is missing %q", want)
		}
	}

	if !strings.Contains(sum, "dma:lanai0:host/utilization") ||
		!strings.Contains(sum, "tlb_hits") {
		t.Errorf("metrics summary incomplete:\n%s", sum)
	}
}

// TestTLBMetricsMatchDriver checks the TLB counters against ground truth:
// a cold 64-page send needs exactly two 32-entry refill batches (the
// AblationTLB setup), and the registry's refill counter must agree with the
// interrupts the board raised for them.
func TestTLBMetricsMatchDriver(t *testing.T) {
	const size = 64 * 4096 // 64 pages = 2 refill batches of 32
	err := new(Run).RunPair(vmmc.Options{}, size, func(p *sim.Proc, pr *Pair) error {
		m := pr.Eng.Metrics()
		misses := m.Counter("node0/tlb_misses")
		refills := m.Counter("node0/tlb_refills")
		intrs := m.Counter("lanai0/interrupts")
		missesBefore, refillsBefore, intrsBefore := misses.Value(), refills.Value(), intrs.Value()

		cold, err := pr.A.Malloc(size)
		if err != nil {
			return err
		}
		if err := pr.A.SendMsgSync(p, cold, pr.ToB, size, vmmc.SendOptions{}); err != nil {
			return err
		}
		missDelta := misses.Value() - missesBefore
		refillDelta := refills.Value() - refillsBefore

		if missDelta != 2 {
			t.Errorf("cold 64-page send: tlb_misses delta = %d, want 2", missDelta)
		}
		if refillDelta != 2 {
			t.Errorf("cold 64-page send: tlb_refills delta = %d, want 2", refillDelta)
		}
		if got, want := refillDelta, intrs.Value()-intrsBefore; got != want {
			t.Errorf("tlb_refills counter delta = %d, the board raised %d interrupts", got, want)
		}

		// The same send again is fully warm: no new misses.
		missesWarm, refillsWarm := misses.Value(), refills.Value()
		if err := pr.A.SendMsgSync(p, cold, pr.ToB, size, vmmc.SendOptions{}); err != nil {
			return err
		}
		if d := misses.Value() - missesWarm; d != 0 {
			t.Errorf("warm resend: tlb_misses delta = %d, want 0", d)
		}
		if d := refills.Value() - refillsWarm; d != 0 {
			t.Errorf("warm resend: tlb_refills delta = %d, want 0", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runFaultedObserved runs one reliable fault-sweep cell (fixed seed,
// heavy corruption) with artifact capture and returns the artifact bytes.
func runFaultedObserved(t *testing.T, tracePath, metricsPath string) (traceJSON, metricsJSON []byte) {
	t.Helper()
	rn := &Run{Observability: Observability{TracePath: tracePath, MetricsPath: metricsPath}}
	_, _, err := rn.faultSweepCase(true, 1e-4)
	if err == nil {
		err = rn.WriteArtifacts()
	}
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	metricsJSON, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	return traceJSON, metricsJSON
}

// TestFaultedArtifactsDeterministic extends the determinism guarantee to
// faulted runs: the fault plan's seeded RNG is the only randomness, so a
// run with hundreds of injected corruptions and retransmissions must
// still produce byte-identical artifacts, corruption counters included.
func TestFaultedArtifactsDeterministic(t *testing.T) {
	dir := t.TempDir()
	t1, m1 := runFaultedObserved(t, filepath.Join(dir, "ft1.json"), filepath.Join(dir, "fm1.json"))
	t2, m2 := runFaultedObserved(t, filepath.Join(dir, "ft2.json"), filepath.Join(dir, "fm2.json"))
	if !bytes.Equal(t1, t2) {
		t.Error("trace artifacts differ between identically seeded faulted runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics artifacts differ between identically seeded faulted runs")
	}
	for _, want := range []string{
		"fault/corruptions",
		"lanai0/rl_retransmits",
	} {
		if !strings.Contains(string(m1), `"`+want+`"`) {
			t.Errorf("faulted metrics artifact is missing %q", want)
		}
	}
	if !strings.Contains(string(t1), "corrupt_packet") {
		t.Error("faulted trace artifact records no corruption events")
	}
}

// TestFingerprint feeds a Run's fingerprint hand-made event streams: the
// same stream gives the same line, and swapping two events, changing one
// event's time, phase, value or any of its strings, moving a byte from
// one string to the next, or splitting the stream across two cells moves
// the digest.
func TestFingerprint(t *testing.T) {
	base := []trace.Event{
		{T: 100, Ph: trace.PhaseBegin, Component: "lanai0/hostdma", Category: "dma", Name: "xfer"},
		{T: 250, Ph: trace.PhaseCounter, Component: "node1/lcp", Category: "lcp", Name: "sendq1_depth", Value: 2},
		{T: 250, Ph: trace.PhaseEnd, Component: "lanai0/hostdma", Category: "dma", Name: "xfer"},
	}
	// line fingerprints evs on a fresh Run, starting a new cell before
	// the event at index split (none when split is 0).
	line := func(evs []trace.Event, split int) string {
		rn := new(Run)
		rn.observedEngine()
		for i, ev := range evs {
			if i > 0 && i == split {
				rn.observedEngine()
			}
			rn.fp.Consume(ev)
		}
		return rn.Fingerprint()
	}
	want := line(base, 0)
	if again := line(base, 0); again != want {
		t.Fatalf("one stream, two lines: %s vs %s", want, again)
	}
	if !strings.HasPrefix(want, "fingerprint: 1 cells, 3 events, ") || len(want) != len("fingerprint: 1 cells, 3 events, ")+16 {
		t.Errorf("line %q, want the cell and event counts and 16 hex digits", want)
	}
	if split := line(base, 1); split == want || !strings.HasPrefix(split, "fingerprint: 2 cells, 3 events, ") {
		t.Errorf("split across two cells: %s, want 2 cells and a digest other than %s", split, want)
	}
	for name, perturb := range map[string]func(evs []trace.Event){
		"swap":             func(evs []trace.Event) { evs[0], evs[1] = evs[1], evs[0] },
		"T":                func(evs []trace.Event) { evs[1].T++ },
		"Ph":               func(evs []trace.Event) { evs[2].Ph = trace.PhaseInstant },
		"Value":            func(evs []trace.Event) { evs[1].Value = 3 },
		"Component":        func(evs []trace.Event) { evs[0].Component = "lanai0/hostdmb" },
		"Category":         func(evs []trace.Event) { evs[1].Category = "lcq" },
		"Name":             func(evs []trace.Event) { evs[2].Name = "xfe" },
		"string boundary":  func(evs []trace.Event) { evs[1].Component, evs[1].Category = "node1/lc", "plcp" },
		"long string tail": func(evs []trace.Event) { evs[1].Name = "sendq1_depti" },
	} {
		evs := slices.Clone(base)
		perturb(evs)
		if got := line(evs, 0); got == want {
			t.Errorf("%s: digest unmoved: %s", name, got)
		}
	}
}
