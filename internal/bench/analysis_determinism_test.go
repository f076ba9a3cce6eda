package bench

import "testing"

// These tests pin the analyzer's end-to-end determinism: running the same
// experiment twice must produce byte-identical analysis report JSON. The
// sweeps self-check one cell per run; this covers the full experiment
// path, headline and scalesweep included, under `go test`.

func analysisJSONFor(t *testing.T, run func(rn *Run) error) string {
	t.Helper()
	rn := new(Run)
	if err := run(rn); err != nil {
		t.Fatal(err)
	}
	rep := rn.Report()
	if rep == nil {
		t.Fatal("experiment produced no analysis report")
	}
	return analysisJSON(rep, "")
}

func TestHeadlineAnalysisDeterministic(t *testing.T) {
	run := func(rn *Run) error { _, err := rn.Headline(); return err }
	first := analysisJSONFor(t, run)
	again := analysisJSONFor(t, run)
	if first != again {
		t.Fatal("headline analysis JSON drifted between identical runs")
	}
	if first == "" || first == "null" {
		t.Fatalf("headline analysis JSON empty: %q", first)
	}
}

func TestScaleSweepAnalysisDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("scalesweep is seconds of simulation")
	}
	run := func(rn *Run) error { _, err := rn.ScaleSweep(ScaleConfig{Nodes: []int{4}}); return err }
	first := analysisJSONFor(t, run)
	again := analysisJSONFor(t, run)
	if first != again {
		t.Fatal("scalesweep analysis JSON drifted between identical runs")
	}
}
