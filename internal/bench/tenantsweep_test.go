package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTenantSweepSmall runs the noisy-neighbor experiment with a short
// call count. The whole sweep runs twice here, and the two runs'
// BENCH_tenant.json artifacts and event fingerprints must be identical —
// the bar the CI smoke job re-checks. The sweep itself enforces the isolation
// acceptance properties (QoS bounds the victim's p99; the crash cell
// finishes with zero victim errors), so a passing run is the robustness
// verdict, not just a timing table.
func TestTenantSweepSmall(t *testing.T) {
	rn := outTo(t.TempDir())
	cfg := TenantConfig{
		Calls: 16,
	}
	tbl, err := rn.TenantSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 { // solo, qos=off, qos=on, crash + 3 default sweep rates
		t.Fatalf("rows = %d, want 7", len(tbl.Rows))
	}
	data, err := os.ReadFile(filepath.Join(rn.OutDir, "BENCH_tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"benchmark": "vmmc-tenantsweep"`, `"case": "solo"`,
		`"case": "shared qos=off"`, `"case": "shared qos=on"`,
		`"case": "crash qos=on"`, `"case": "shared qos=on rate=5MB/s"`,
		`"sweep_rates_b_s"`, `"victim_errors": 0`,
		`"verdict"`, `"tenants"`, `"name": "bulk"`, `"name": "victim"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("artifact missing %s", key)
		}
	}

	rerun := outTo(t.TempDir())
	if _, err := rerun.TenantSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if rn.Fingerprint() != rerun.Fingerprint() {
		t.Errorf("fingerprints differ between two identical sweeps: %s vs %s", rn.Fingerprint(), rerun.Fingerprint())
	}
	again, err := os.ReadFile(filepath.Join(rerun.OutDir, "BENCH_tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("BENCH_tenant.json not byte-identical across sweeps")
	}
}

// TestTenantSweepRejectsBadCalls: the call count arrives from the
// -tenant-calls flag, so the sweep itself refuses what no cell can run —
// a negative count, or one call (the crash cell kills its neighbor half
// way through the victim's calls) — before running anything.
func TestTenantSweepRejectsBadCalls(t *testing.T) {
	for _, calls := range []int{-3, 1} {
		_, err := new(Run).TenantSweep(TenantConfig{Calls: calls})
		if !errors.Is(err, errConfig) || !strings.Contains(err.Error(), "victim calls per cell") {
			t.Errorf("Calls=%d: err = %v, want a configuration error naming the victim's call count", calls, err)
		}
	}
}
