package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleSweepSmall runs the scaling experiment on a 12-node cluster —
// small enough for CI (and the race detector), large enough to exercise
// the multi-switch fabric and the centralized mapper.
func TestScaleSweepSmall(t *testing.T) {
	rn := outTo(t.TempDir())
	tbl, err := rn.ScaleSweep(ScaleConfig{Nodes: []int{12}, MsgBytes: 256, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tbl.Rows))
	}
	data, err := os.ReadFile(filepath.Join(rn.OutDir, "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"benchmark": "vmmc-scalesweep"`, `"nodes": 12`,
		`"wall_seconds"`, `"samples_elided"`, `"events_per_sec"`, `"allocs_per_event"`, `"peak_event_heap"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("artifact missing %s", key)
		}
	}
}

// TestScaleSweepRejectsOversizedMessage pins the one-page-per-peer export
// layout invariant that keeps a 256-node all-to-all inside the 2048-entry
// outgoing page table.
func TestScaleSweepRejectsOversizedMessage(t *testing.T) {
	if _, err := new(Run).ScaleSweep(ScaleConfig{Nodes: []int{4}, MsgBytes: 1 << 20}); err == nil {
		t.Fatal("oversized message accepted")
	}
}
