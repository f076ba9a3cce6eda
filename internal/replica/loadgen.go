package replica

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/sim"
)

// Stats is the outcome of an open-loop run against the replicated tier:
// the shared open-loop outcome plus the read-your-writes audit.
type Stats struct {
	serve.Stats
	// RYWFallbacks counts reads that saw a stale follower version and
	// re-read the primary — the client-visible cost of asynchronous
	// replication.
	RYWFallbacks int64
	// RYWViolations counts reads that resolved OK below the version the
	// client had already written. Must stay zero: the primary fallback
	// closes the asynchronous-apply window.
	RYWViolations int64
}

// putValue derives a deterministic value for write seq to a key.
func (t *Tier) putValue(key uint32, seq int) []byte {
	val := make([]byte, t.cfg.ValueBytes)
	for i := range val {
		val[i] = byte(int(key)*17 + seq + i)
	}
	return val
}

// RunOpenLoop drives the workload through serve's open-loop generator
// with two replication-layer differences from serve.Tier.RunOpenLoop:
// each worker holds a Group (a connection per replica, every one
// warmed) instead of a single shard connection, and reads go through
// GetRYW against the highest version the clients have written, so every
// run doubles as a read-your-writes audit.
func (t *Tier) RunOpenLoop(p *sim.Proc, w serve.WorkloadConfig) (*Stats, error) {
	stats := &Stats{}
	// Highest version the load successfully wrote per key; the floor for
	// GetRYW. Workers are engine-serialized, so the shared table is safe.
	want := make([]uint64, t.cfg.Keys)
	for i := range want {
		want[i] = 1 // preloaded version
	}

	var workers []serve.Worker
	for cIdx, node := range t.cfg.ClientNodes {
		proc, err := t.cluster.Nodes[node].NewProcess(p)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, proc)
		for sIdx := 0; sIdx < t.cfg.Shards; sIdx++ {
			for k := 0; k < t.cfg.Conns; k++ {
				pol := serve.RetryPolicy{Seed: w.Seed ^ (uint64(cIdx)<<40 | uint64(sIdx)<<20 | uint64(k))}
				grp, err := t.DialGroup(p, proc, cIdx, sIdx, k, pol)
				if err != nil {
					return nil, err
				}
				for j := 0; j < t.cfg.R; j++ {
					if _, _, _, err := grp.GetFrom(p, j, uint32(sIdx), 0); err != nil {
						return nil, fmt.Errorf("replica: warm call s%dr%d: %w", sIdx, j, err)
					}
				}
				workers = append(workers, serve.Worker{Shard: sIdx, Retrier: grp.Retrier,
					Do: func(wp *sim.Proc, req serve.Request) error {
						if req.Put {
							ver, err := grp.Put(wp, req.Key, t.putValue(req.Key, req.Seq), req.Deadline)
							if err == nil && ver > want[req.Key] {
								want[req.Key] = ver
							}
							return err
						}
						minVer := want[req.Key]
						_, ver, _, _, fallback, err := grp.GetRYW(wp, req.Key, minVer, req.Deadline)
						if fallback {
							stats.RYWFallbacks++
						}
						if err == nil && ver < minVer {
							stats.RYWViolations++
						}
						return err
					}})
			}
		}
	}
	// Exclude warm traffic (client warms here, apply warms at build) from
	// the measured counters.
	for _, set := range t.sets {
		for _, rep := range set.Replicas {
			rep.srv.Calls = 0
			rep.Offered = 0
			rep.Applies = 0
			rep.StaleApplies = 0
		}
	}
	shared, err := serve.NewOpenLoop(t.eng, t.cfg.Shards).Run(p, "replica", t.cfg.Keys, w, workers)
	if err != nil {
		return nil, err
	}
	stats.Stats = *shared
	t.EmitUsage()
	return stats, nil
}
