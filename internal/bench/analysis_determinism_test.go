package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// These tests pin the analyzer's end-to-end determinism: running the same
// experiment twice must produce byte-identical analysis report JSON. This
// covers the full experiment path, headline and scalesweep included,
// under `go test`.

// analysisJSONFor runs an experiment on a fresh Run and returns its last
// report as JSON, and the Run's event fingerprint.
func analysisJSONFor(t *testing.T, run func(rn *Run) error) (string, string) {
	t.Helper()
	rn := new(Run)
	if err := run(rn); err != nil {
		t.Fatal(err)
	}
	rep := rn.Report()
	if rep == nil {
		t.Fatal("experiment produced no analysis report")
	}
	return analysisJSON(rep, ""), rn.Fingerprint()
}

func TestHeadlineAnalysisDeterministic(t *testing.T) {
	run := func(rn *Run) error { _, err := rn.Headline(); return err }
	first, _ := analysisJSONFor(t, run)
	again, _ := analysisJSONFor(t, run)
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
	dirs := []string{t.TempDir(), t.TempDir()}
	runIn := func(dir string) func(rn *Run) error {
		return func(rn *Run) error {
			rn.OutDir = dir
			_, err := rn.ScaleSweep(ScaleConfig{Nodes: []int{4}})
			return err
		}
	}
	first, firstFP := analysisJSONFor(t, runIn(dirs[0]))
	again, againFP := analysisJSONFor(t, runIn(dirs[1]))
	if first != again {
		t.Fatal("scalesweep analysis JSON drifted between identical runs")
	}
	// scalesweep is not in RESULTS.txt, so nothing else pins its events,
	// nor the scheduler's counts in its artifact.
	if firstFP != againFP {
		t.Fatalf("scalesweep fingerprint drifted between identical runs: %s vs %s", firstFP, againFP)
	}
	a, b := simulatedScaleConfigs(t, dirs[0]), simulatedScaleConfigs(t, dirs[1])
	if _, ok := a[0]["events_dispatched"]; !ok || !reflect.DeepEqual(a, b) {
		t.Fatalf("BENCH_scale.json's simulated members drifted between identical runs:\n%v\n%v", a, b)
	}
}

// simulatedScaleConfigs reads dir's BENCH_scale.json and returns its
// configs without the four wall-clock members.
func simulatedScaleConfigs(t *testing.T, dir string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art struct{ Configs []map[string]any }
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Configs) == 0 {
		t.Fatal("BENCH_scale.json has no configs")
	}
	for _, c := range art.Configs {
		for _, k := range []string{"wall_seconds", "events_per_sec", "allocs_per_event", "heap_sys_mb"} {
			delete(c, k)
		}
	}
	return art.Configs
}
