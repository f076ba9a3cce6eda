package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// regenerateGoldens is the one command that rewrites every file
// TestResultsGolden pins.
const regenerateGoldens = "go run ./cmd/vmmcbench -deterministic -out . > RESULTS.txt"

// TestResultsGolden pins RESULTS.txt and the deterministic sweeps'
// BENCH_*.json artifacts: rendering the deterministic experiment set
// through the registry, with -out pointed at a scratch directory, must
// reproduce the checked-in files byte for byte, and write no other file.
// Every quantity those experiments emit is virtual-time derived, and
// RESULTS.txt carries each experiment's event fingerprint, so any diff is
// a real behavior change in the modeled system: a moved fingerprint with
// no moved number is a change in what the model did, not in what it
// printed. One failure names every drifted file; regenerate them all from
// the repo root with
//
//	go run ./cmd/vmmcbench -deterministic -out . > RESULTS.txt
//
// and review the delta like code.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full deterministic suite is seconds of simulation")
	}
	dir := t.TempDir()
	artifacts := []string{"BENCH_coll.json", "BENCH_heal.json", "BENCH_replica.json", "BENCH_serve.json", "BENCH_tenant.json"}
	// Every spin the experiments park is checked against its watch, and
	// every undamaged packet against the bytes it was injected with.
	var buf bytes.Buffer
	ran, err := runExperiments(&buf, "", true, false, bench.Observability{VerifySkips: true, VerifyIntact: true, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("registry rendered no deterministic experiments")
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range written {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, artifacts) {
		t.Fatalf("-deterministic -out wrote %q, want exactly %q", names, artifacts)
	}
	var drift []string
	for _, name := range artifacts {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("../..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			drift = append(drift, name+" drifted")
		}
	}
	want, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	if line, n := firstDrift(buf.String(), string(want)); n > 0 {
		drift = append(drift, fmt.Sprintf("RESULTS.txt drifted on %d lines, first at %s", n, line))
	}
	if len(drift) > 0 {
		t.Fatalf("%s\nregenerate from the repo root with\n  %s\nand review the diff",
			strings.Join(drift, "\n"), regenerateGoldens)
	}
}

// firstDrift compares got with want line by line: it returns how many
// lines differ (a line one side lacks counts) and describes the first.
func firstDrift(got, want string) (first string, n int) {
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g == w {
			continue
		}
		if n++; n == 1 {
			first = fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, g, w)
		}
	}
	return first, n
}

// TestRegenerateCommandDocumented keeps the README and the CI drift step
// on the command TestResultsGolden names.
func TestRegenerateCommandDocumented(t *testing.T) {
	for _, name := range []string{"README.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(filepath.Join("../..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), regenerateGoldens) {
			t.Errorf("%s does not name the regeneration command %q", name, regenerateGoldens)
		}
	}
}
