package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// TestArtifactsFromLastExperiment runs two quick experiments through
// runExperiments with a trace asked for: the trace file must be the one
// the second experiment writes when it runs alone, and the first
// experiment's Run must have armed no trace.
func TestArtifactsFromLastExperiment(t *testing.T) {
	dir := t.TempDir()
	alone := filepath.Join(dir, "alone.json")
	if _, err := runExperiments(io.Discard, "fig2", false, false, bench.Observability{TracePath: alone}); err != nil {
		t.Fatal(err)
	}

	saved := experiments
	defer func() { experiments = saved }()
	var pair []experiment
	for _, e := range saved {
		if e.id == "fig2" || e.id == "headline" {
			pair = append(pair, e)
		}
	}
	if len(pair) != 2 || pair[1].id != "fig2" {
		t.Fatalf("registry order changed: %v", pair)
	}
	seen := make([]*bench.Run, len(pair))
	experiments = nil
	for i, e := range pair {
		run := e.run
		e.run = func(rn *bench.Run, w io.Writer) error { seen[i] = rn; return run(rn, w) }
		experiments = append(experiments, e)
	}
	both := filepath.Join(dir, "both.json")
	if _, err := runExperiments(io.Discard, "", true, false, bench.Observability{TracePath: both}); err != nil {
		t.Fatal(err)
	}
	if seen[0].TracePath != "" {
		t.Errorf("the first experiment armed a trace to %q", seen[0].TracePath)
	}
	want, err := os.ReadFile(alone)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(both)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Errorf("trace after headline+fig2 (%d bytes) differs from fig2's alone (%d bytes)", len(got), len(want))
	}
}
