package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeSweepSmall runs the serving-tier experiment with a short
// request count. The whole sweep runs twice here, and the two runs'
// BENCH_serve.json artifacts and event fingerprints must be identical —
// the bar the CI smoke job re-checks. The sweep itself enforces the overload
// acceptance properties (admission does not lose goodput past the knee,
// admitted tails stay bounded, shed requests fail fast typed, the
// outage cell loses nothing), so a passing run is the robustness
// verdict, not just a timing table.
func TestServeSweepSmall(t *testing.T) {
	rn := outTo(t.TempDir())
	cfg := ServeConfig{
		Requests: 160,
	}
	tbl, err := rn.ServeSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 default rates x adm off/on + hot shard + fault clean/outage.
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tbl.Rows))
	}
	data, err := os.ReadFile(filepath.Join(rn.OutDir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"benchmark": "vmmc-servesweep"`, `"rates_per_s"`,
		`"case": "s=2 rate=15000 adm=off"`, `"case": "s=2 rate=60000 adm=on"`,
		`"case": "hot shard s=2 rate=60000 theta=1.3"`,
		`"case": "fault outage+heal"`, `"transport_errors": 0`,
		`"shed_arrive"`, `"goodput_frac"`, `"verdict"`,
		`"serve"`, `"name": "shard0"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("artifact missing %s", key)
		}
	}

	rerun := outTo(t.TempDir())
	if _, err := rerun.ServeSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if rn.Fingerprint() != rerun.Fingerprint() {
		t.Errorf("fingerprints differ between two identical sweeps: %s vs %s", rn.Fingerprint(), rerun.Fingerprint())
	}
	again, err := os.ReadFile(filepath.Join(rerun.OutDir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("BENCH_serve.json not byte-identical across sweeps")
	}
}

// TestServeSweepRejectsNegativeRequests: the request count arrives from
// the -serve-requests flag, so the sweep checks it before running.
func TestServeSweepRejectsNegativeRequests(t *testing.T) {
	_, err := new(Run).ServeSweep(ServeConfig{Requests: -160})
	if !errors.Is(err, errConfig) || !strings.Contains(err.Error(), "offered requests per cell") {
		t.Errorf("err = %v, want a configuration error naming the offered request count", err)
	}
}
