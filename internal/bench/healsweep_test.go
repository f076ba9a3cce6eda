package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestHealSweepSmall runs the self-healing experiment in its smallest
// configuration: one link-outage duration plus the always-included
// baseline and spine-failover cells, 8 messages each. The whole sweep
// runs twice here, and the two runs' BENCH_heal.json artifacts and event
// fingerprints must be identical — the bar the CI smoke job re-checks.
func TestHealSweepSmall(t *testing.T) {
	rn := outTo(t.TempDir())
	cfg := HealSweepConfig{
		Outages: []sim.Time{2 * sim.Millisecond},
		Msgs:    8,
	}
	tbl, err := rn.HealSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // baseline + 1 link outage + spine failover
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	data, err := os.ReadFile(filepath.Join(rn.OutDir, "BENCH_heal.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"benchmark": "vmmc-healsweep"`, `"case": "no outage"`,
		`"case": "link outage"`, `"case": "spine failover"`,
		`"route_swaps"`, `"healed"`, `"send_failures": 0`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("artifact missing %s", key)
		}
	}

	rerun := outTo(t.TempDir())
	if _, err := rerun.HealSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if rn.Fingerprint() != rerun.Fingerprint() {
		t.Errorf("fingerprints differ between two identical sweeps: %s vs %s", rn.Fingerprint(), rerun.Fingerprint())
	}
	again, err := os.ReadFile(filepath.Join(rerun.OutDir, "BENCH_heal.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("BENCH_heal.json differs between two identical sweeps")
	}
}
