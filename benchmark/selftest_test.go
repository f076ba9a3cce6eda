package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/vmmc"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSpecMatchesBenchmarkJSON pins the Go metric tables and workload list
// to BENCHMARK.json: names, units, directions and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if !reflect.DeepEqual(d.EndToEnd, endToEndSpec) {
		t.Errorf("end_to_end differs:\n json %+v\n   go %+v", d.EndToEnd, endToEndSpec)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayerSpec) {
		t.Errorf("per_layer differs:\n json %+v\n   go %+v", d.PerLayer, perLayerSpec)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: json %q, go %q", i, d.Workloads[i].Name, w.name)
		}
	}
}

// selftestWorkloads are the five workloads, with alltoall shrunk to 13
// nodes (still a three-switch chain with reliable links) to keep the pass
// short.
func selftestWorkloads() []*workload {
	small := *alltoallWorkload
	small.unit = 13 * 12
	small.opts = func() vmmc.Options { return alltoallOpts(13) }
	return []*workload{pingpongWorkload, streamWorkload, &small, allreduceWorkload, kvWorkload}
}

func names(m map[string]metricValue) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func specNames(spec []metricSpec) map[string]bool {
	out := make(map[string]bool, len(spec))
	for _, sp := range spec {
		out[sp.Name] = true
	}
	return out
}

// TestSelftest is a scaled-down pass of all five workloads: outputs verify,
// the result lines carry exactly the declared metric names, every computed
// per-layer metric is a declared one, and two in-process runs agree exactly
// on every virtual metric.
func TestSelftest(t *testing.T) {
	d := readDeclared(t)
	cfg := runCfg{seed: 7, seconds: 0.02, batches: 2, setupReps: 1}
	for _, w := range selftestWorkloads() {
		first, err := runUntraced(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runUntraced(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := first.endToEnd(), second.endToEnd()
		for _, name := range exactMetrics {
			if a[name] != b[name] {
				t.Errorf("%s: %s differs between two runs: %v vs %v", w.name, name, a[name], b[name])
			}
		}
		if got, want := names(newResult(endToEndSpec, a, first).Metrics), specNames(d.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end names %v, declared %v", w.name, got, want)
		}
		for name, v := range a {
			if v == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}

		s, layer, err := runTraced(w, cfg, "")
		if err != nil {
			t.Fatal(err)
		}
		declaredLayer := specNames(d.PerLayer)
		for name := range layer {
			if !declaredLayer[name] {
				t.Errorf("%s: per-layer metric %s is not declared", w.name, name)
			}
		}
		if got := names(newResult(perLayerSpec, layer, s).Metrics); !reflect.DeepEqual(got, declaredLayer) {
			t.Errorf("%s: per-layer names %v, declared %v", w.name, got, declaredLayer)
		}
	}
}
