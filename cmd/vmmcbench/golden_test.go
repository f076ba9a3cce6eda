package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestResultsGolden pins RESULTS.txt and the deterministic sweeps'
// BENCH_*.json artifacts: rendering the deterministic experiment set
// through the registry, with every sweep's -*-out flag pointed at a
// scratch directory, must reproduce the checked-in files byte for byte.
// Every quantity those experiments emit is virtual-time derived, so any
// diff is a real behavior change in the modeled system — regenerate
// with `go run ./cmd/vmmcbench -deterministic > RESULTS.txt` (adding
// `-heal-out BENCH_heal.json` and its siblings for the artifacts) and
// review the delta like code.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full deterministic suite is seconds of simulation")
	}
	dir := t.TempDir()
	artifacts := map[string]*string{
		"BENCH_heal.json":    healOut,
		"BENCH_coll.json":    collOut,
		"BENCH_tenant.json":  tenantOut,
		"BENCH_serve.json":   serveOut,
		"BENCH_replica.json": replicaOut,
	}
	for name, flag := range artifacts {
		*flag = filepath.Join(dir, name)
		defer func() { *flag = "" }()
	}
	// Every spin the experiments park is checked against its watch, and
	// every undamaged packet against the bytes it was injected with.
	bench.SetObservability(bench.Observability{VerifySkips: true, VerifyIntact: true})
	defer bench.SetObservability(bench.Observability{})
	var buf bytes.Buffer
	ran, err := runExperiments(&buf, "", true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("registry rendered no deterministic experiments")
	}
	for name := range artifacts {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("../..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("sweep artifact drifted from the checked-in %s; regenerate it and review the diff", name)
		}
	}
	want, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output drifted from RESULTS.txt at line %d:\n  got:  %q\n  want: %q\n"+
				"regenerate with `go run ./cmd/vmmcbench -deterministic > RESULTS.txt` and review the diff",
				i+1, g, w)
		}
	}
	t.Fatal("output drifted from RESULTS.txt (length mismatch)")
}
