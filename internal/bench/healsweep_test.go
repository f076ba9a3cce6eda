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
// baseline and spine-failover cells, 8 messages each. Every cell runs
// twice inside HealSweep and fails on any drift, so this doubles as a
// determinism check of the heal layer; on top of that, the whole sweep
// runs twice here and the BENCH_heal.json artifacts must be
// byte-identical — the acceptance bar the CI smoke job re-checks.
func TestHealSweepSmall(t *testing.T) {
	dir := t.TempDir()
	cfg := HealSweepConfig{
		Outages: []sim.Time{2 * sim.Millisecond},
		Msgs:    8,
		Out:     filepath.Join(dir, "BENCH_heal.json"),
	}
	tbl, err := new(Run).HealSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // baseline + 1 link outage + spine failover
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	data, err := os.ReadFile(cfg.Out)
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

	cfg.Out = filepath.Join(dir, "BENCH_heal_again.json")
	if _, err := new(Run).HealSweep(cfg); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("BENCH_heal.json differs between two identical sweeps")
	}
}
