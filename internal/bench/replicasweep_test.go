package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplicaSweepSmall runs the replication experiment with a short
// request count. The whole sweep runs twice here, and the two runs'
// BENCH_replica.json artifacts and event fingerprints must be identical
// — the bar the CI smoke job re-checks. The sweep itself enforces the replication
// properties (R>=2 beats R=1 past the knee at equal total capacity,
// load-aware routing flattens the hot shard, the follower kill costs
// nothing but tail latency), so a passing run is the replication
// verdict, not just a timing table.
func TestReplicaSweepSmall(t *testing.T) {
	rn := outTo(t.TempDir())
	cfg := ReplicaConfig{
		Requests: 160,
	}
	tbl, err := rn.ReplicaSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 default Rs x 2 rates + routing pair + kill pair.
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tbl.Rows))
	}
	data, err := os.ReadFile(filepath.Join(rn.OutDir, "BENCH_replica.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"benchmark": "vmmc-replicasweep"`, `"rates_per_s"`,
		`"case": "r=1 rate=30000"`, `"case": "r=3 rate=70000"`,
		`"case": "hot r=3 rate=45000 route=static"`,
		`"case": "hot r=3 rate=45000 route=loadaware"`,
		`"case": "kill follower"`, `"dead_followers": 1`,
		`"hot_offered"`, `"ryw_fallbacks"`, `"goodput_frac"`,
		`"transport_errors": 0`, `"verdict"`,
		`"replica"`, `"name": "s0r0"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("artifact missing %s", key)
		}
	}

	rerun := outTo(t.TempDir())
	if _, err := rerun.ReplicaSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if rn.Fingerprint() != rerun.Fingerprint() {
		t.Errorf("fingerprints differ between two identical sweeps: %s vs %s", rn.Fingerprint(), rerun.Fingerprint())
	}
	again, err := os.ReadFile(filepath.Join(rerun.OutDir, "BENCH_replica.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("BENCH_replica.json not byte-identical across sweeps")
	}
}

// TestReplicaSweepRejectsNegativeRequests: the request count arrives from
// the -replica-requests flag, so the sweep checks it before running.
func TestReplicaSweepRejectsNegativeRequests(t *testing.T) {
	_, err := new(Run).ReplicaSweep(ReplicaConfig{Requests: -160})
	if !errors.Is(err, errConfig) || !strings.Contains(err.Error(), "offered requests per cell") {
		t.Errorf("err = %v, want a configuration error naming the offered request count", err)
	}
}
