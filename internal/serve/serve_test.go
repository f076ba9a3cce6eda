package serve

import (
	"errors"
	"testing"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// tierSetup boots a cluster, builds a tier on it, and runs fn as the
// orchestrating proc. The client process for ClientNodes[0] is created
// and handed to fn for direct-connection tests.
func tierSetup(t *testing.T, cfg Config, nodes int, fn func(p *sim.Proc, tier *Tier, cproc *vmmc.Process)) error {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	cluster, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: nodes, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Go("serve-test", func(p *sim.Proc) {
		tier, err := Build(p, cluster, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		cproc, err := cluster.Nodes[cfg.ClientNodes[0]].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, tier, cproc)
	})
	return cluster.Start()
}

// TestServeKVRoundTrip checks the KV protocol itself: preloaded values
// come back byte-exact, missing keys report not-found, and a Put is
// visible to a later Get.
func TestServeKVRoundTrip(t *testing.T) {
	cfg := Config{
		ShardNodes:  []int{1},
		ClientNodes: []int{0},
		Conns:       1,
		Keys:        16,
	}
	err := tierSetup(t, cfg, 2, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
		conn, err := tier.DialShard(p, cproc, 0, 0, 0, DefaultRetryPolicy(1))
		if err != nil {
			t.Error(err)
			return
		}
		val, err := conn.Get(p, 3, 0)
		if err != nil {
			t.Errorf("get preloaded key: %v", err)
			return
		}
		if len(val) != valueBytes {
			t.Errorf("value length = %d, want %d", len(val), valueBytes)
		}
		for j, b := range val {
			if b != byte(3*31+j) {
				t.Errorf("val[%d] = %#x, want %#x", j, b, byte(3*31+j))
				break
			}
		}
		if val, err := conn.Get(p, 99, 0); err != nil || val != nil {
			t.Errorf("get missing key = (%v, %v), want (nil, nil)", val, err)
		}
		if err := conn.Put(p, 99, []byte("stored-by-test"), 0); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		val, err = conn.Get(p, 99, 0)
		if err != nil || string(val) != "stored-by-test" {
			t.Errorf("get after put = (%q, %v)", val, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeOpenLoopResolvesAll runs a small under-capacity open-loop
// workload and checks every offered request resolves OK with zero
// transport or protocol errors — and that a double run is deterministic
// in both counters and virtual end time.
func TestServeOpenLoopResolvesAll(t *testing.T) {
	type run struct {
		ok, sends int64
		end       sim.Time
	}
	once := func() run {
		cfg := Config{
			ShardNodes:  []int{1, 2},
			ClientNodes: []int{0},
			Conns:       1,
			ServiceTime: sim.Micros(20),
			Keys:        32,
		}
		var r run
		err := tierSetup(t, cfg, 3, func(p *sim.Proc, tier *Tier, _ *vmmc.Process) {
			stats, err := tier.RunOpenLoop(p, WorkloadConfig{
				Rate:     10000,
				Requests: 60,
				Seed:     7,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if stats.Offered != 60 || stats.OK != 60 || stats.Errors != 0 {
				t.Errorf("offered/ok/errors = %d/%d/%d, want 60/60/0",
					stats.Offered, stats.OK, stats.Errors)
			}
			if got := stats.OK + stats.Late + stats.Rejected + stats.Expired + stats.TimedOut + stats.Dropped + stats.Errors; got != 60 {
				t.Errorf("resolved = %d, want 60", got)
			}
			var offered, served int64
			for _, sh := range tier.Shards() {
				offered += sh.Offered
				served += sh.Server().Calls
			}
			if offered != 60 || served != 60 {
				t.Errorf("shard offered/served = %d/%d, want 60/60", offered, served)
			}
			if tier.TransportErrors() != 0 {
				t.Errorf("transport errors = %d, want 0", tier.TransportErrors())
			}
			r = run{ok: stats.OK, sends: stats.Sends, end: p.Now()}
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := once(), once()
	if a != b {
		t.Errorf("double run drifted: %+v vs %+v", a, b)
	}
}

// TestServeRetryBudgetExhausted pins the retry token bucket under
// sustained rejection: total sends stay within N*(1+retryRatio) +
// retryBudget, every call surfaces the typed retriable error, and backoff
// jitter is deterministic across a double run. The first call drains the
// full bucket; enough calls follow for the earned tokens to buy retries
// again, so both terms of the bound are exercised.
func TestServeRetryBudgetExhausted(t *testing.T) {
	const calls = 24
	pol := DefaultRetryPolicy(9)
	type run struct {
		stats ConnStats
		end   sim.Time
	}
	once := func() run {
		cfg := Config{ShardNodes: []int{1}, ClientNodes: []int{0}, Conns: 1}
		var r run
		err := tierSetup(t, cfg, 2, func(p *sim.Proc, tier *Tier, cproc *vmmc.Process) {
			conn, err := tier.DialShard(p, cproc, 0, 0, 0, pol)
			if err != nil {
				t.Error(err)
				return
			}
			// Warm while admission is still open, then slam the door.
			if _, err := conn.Get(p, 0, 0); err != nil {
				t.Errorf("warm call: %v", err)
				return
			}
			conn.Stats = ConnStats{}
			tier.Shard(0).Server().SetAdmission(
				func(rpc.AdmitPhase, int, sim.Time, sim.Time) bool { return false })
			for i := 0; i < calls; i++ {
				if _, err := conn.Get(p, uint32(i), 0); !errors.Is(err, rpc.ErrOverloaded) {
					t.Errorf("call %d error = %v, want ErrOverloaded", i, err)
				}
			}
			r = run{stats: conn.Stats, end: p.Now()}
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := once(), once()
	const bound = calls*(1+retryRatio) + retryBudget
	if float64(a.stats.Sends) > bound {
		t.Errorf("sends = %d, exceeds budget bound %.1f", a.stats.Sends, bound)
	}
	if a.stats.Sends < calls {
		t.Errorf("sends = %d, below offered calls %d", a.stats.Sends, calls)
	}
	if a.stats.Retries == 0 || a.stats.BudgetDenied != calls {
		t.Errorf("retries/denied = %d/%d, want >0/%d",
			a.stats.Retries, a.stats.BudgetDenied, calls)
	}
	if a.stats.Retries <= retryBudget {
		t.Errorf("retries = %d: the tokens later calls earned never bought a retry", a.stats.Retries)
	}
	if a.stats.Retries != a.stats.Sends-calls {
		t.Errorf("retries = %d, want sends-calls = %d", a.stats.Retries, a.stats.Sends-calls)
	}
	if a != b {
		t.Errorf("double run drifted: %+v vs %+v", a, b)
	}
}

// TestServeShardStuckTyped wedges the tier — requests are generated and
// queued but no connections exist to drain them — and checks the
// engine's deadlock report comes back as a typed ShardStuckError naming
// the shard, backlog depth, and oldest request age.
func TestServeShardStuckTyped(t *testing.T) {
	cfg := Config{
		ShardNodes:  []int{1},
		ClientNodes: []int{0},
		Conns:       0, // no workers: the dispatch queue can only fill
	}
	err := tierSetup(t, cfg, 2, func(p *sim.Proc, tier *Tier, _ *vmmc.Process) {
		_, err := tier.RunOpenLoop(p, WorkloadConfig{
			Rate:     100000,
			Requests: 5,
			Seed:     3,
		})
		t.Errorf("RunOpenLoop returned (%v); expected a permanent wedge", err)
	})
	if err == nil {
		t.Fatal("cluster.Start returned nil, want a shard-stuck error")
	}
	if !errors.Is(err, ErrShardStuck) {
		t.Fatalf("error does not match ErrShardStuck: %v", err)
	}
	var sse *ShardStuckError
	if !errors.As(err, &sse) {
		t.Fatalf("error is not a *ShardStuckError: %v", err)
	}
	if sse.Shard != 0 || sse.Depth != 5 || sse.OldestAge <= 0 {
		t.Errorf("shard/depth/age = %d/%d/%v, want 0/5/>0", sse.Shard, sse.Depth, sse.OldestAge)
	}
}
