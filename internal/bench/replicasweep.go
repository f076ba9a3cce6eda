package bench

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// ReplicaConfig parameterizes the replicasweep experiment.
type ReplicaConfig struct {
	// Rs are the replication factors to sweep. Every value must divide
	// the fixed 6-server pool (1, 2, 3, or 6); the tier geometry keeps
	// total capacity equal across them — R=1 runs 6 shards of one
	// replica, R=3 runs 2 shards of three — so goodput differences are
	// pure replication effects. Nil selects 1, 2 and 3.
	Rs []int
	// Rates are the total offered loads in requests/sec. With the
	// default Zipf skew they must straddle the R=1 tier's capacity knee
	// (its hottest shard saturates first); the sweep fails if every rate
	// lands on one side. Nil selects 30000 and 70000.
	Rates []float64
	// Requests is the offered request count per cell. Zero selects 240.
	Requests int
}

// Fixed geometry and policy for the sweep. Six server nodes and 24
// worker connections total, split evenly across however many shards the
// replication factor leaves; admission, deadline, and service time
// match the servesweep values so per-server capacity carries over.
const (
	replicaServers    = 6
	replicaClients    = 2 // front-end nodes; workers split across them
	replicaTotalConns = 24
	replicaService    = 30 * sim.Microsecond
	replicaDeadline   = 400 * sim.Microsecond
	// The per-attempt clamp must clear the worst admitted latency
	// (sojourn target + service + RTT), or healthy-but-busy replicas
	// trigger attempt-timeout storms; 250 us leaves a dead replica
	// costing well under the request deadline.
	replicaAttempt  = 250 * sim.Microsecond
	replicaMaxQueue = 6
	replicaTarget   = 120 * sim.Microsecond
	replicaKeys     = 60 // divisible by every default shard count
	replicaTheta    = 1.1
	replicaPutFrac  = 0.15
	replicaHotTheta = 1.3
	replicaHotRate  = 45000
	replicaKillRate = 30000
	replicaSeed     = 0x9E11CA01
)

// ReplicaResult is one cell: outcome counts, latency quantiles, and the
// routing/replication counters. All fields are deterministic.
type ReplicaResult struct {
	Case   string  `key:"case,%q" col:"case,%s"`
	R      int     `key:"r,%d"`
	Shards int     `key:"shards,%d"`
	Rate   float64 `key:"rate_per_s,%.0f" col:"rate,%.0f/s"`
	Static bool    `key:"static_routing,%t"`

	loadCounts `hide:"drop"`

	Puts          int64 `key:"puts,%d"`
	RYWFallbacks  int64 `key:"ryw_fallbacks,%d" col:"ryw fb,%d"`
	RYWViolations int64 `key:"ryw_violations,%d"`

	admitCounts

	Applies       int64 `key:"applies,%d"`
	ApplyFails    int64 `key:"apply_fails,%d"`
	ApplySkipped  int64 `key:"apply_skipped,%d"`
	DeadFollowers int   `key:"dead_followers,%d"`

	// HotOffered is the router's per-replica attempt count on shard 0 —
	// the Zipf-hot shard — for the routing-flatness comparison.
	HotOffered []int64 `key:"hot_offered,%d"`

	loadTail `hide:"shed p99"`
}

// hotSpread is the flatness metric: max minus min per-replica attempts
// on the hot shard. Load-aware routing should drive it toward zero;
// static key-hash routing concentrates the hottest key on one replica.
func (r ReplicaResult) hotSpread() int64 {
	return slices.Max(r.HotOffered) - slices.Min(r.HotOffered)
}

// ReplicaSweep drives the replicated KV tier across replication factors
// at equal total capacity: the same six servers and 24 workers serve
// every cell, so R=1 is six one-copy shards and R=3 is two three-copy
// shards. Under Zipf-skewed open-loop load the unreplicated tier
// saturates its hottest shard first, while replicated tiers spread that
// shard's reads across R servers via hint-fed two-choice routing —
// acceptance requires R>=2 to beat R=1 on goodput past the knee.
// Satellite cells compare static key-hash routing against load-aware
// routing on a hot shard (the per-replica attempt spread must flatten)
// and kill a follower mid-measurement (goodput must stay 100% with zero
// client-visible errors, the kill surfacing only in tail latency and
// the primary's apply-failure counters). Every quantity in
// BENCH_replica.json is virtual-time derived, so the file is
// byte-identical across runs.
func (rn *Run) ReplicaSweep(cfg ReplicaConfig) (Table, error) {
	if len(cfg.Rs) == 0 {
		cfg.Rs = []int{1, 2, 3}
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{30000, 70000}
	}
	if cfg.Requests < 0 {
		return Table{}, fmt.Errorf("bench: replicasweep: %w: %d offered requests per cell", errConfig, cfg.Requests)
	}
	if cfg.Requests == 0 {
		cfg.Requests = 240
	}
	for _, r := range cfg.Rs {
		if r < 1 || replicaServers%r != 0 || replicaTotalConns%(replicaClients*(replicaServers/r)) != 0 {
			return Table{}, fmt.Errorf("bench: replicasweep: R=%d does not divide the %d-server pool", r, replicaServers)
		}
	}

	t := Table{
		Title:   "Replica sweep: R-way shard replication at equal total capacity, load-aware routing, replica kill",
		Columns: columns(ReplicaResult{}),
	}

	type cell struct {
		name     string
		r        int
		rate     float64
		static   bool
		theta    float64
		putFrac  float64
		deadline sim.Time
		kill     bool
	}
	var cells []cell
	for _, r := range cfg.Rs {
		for _, rate := range cfg.Rates {
			cells = append(cells, cell{
				name: fmt.Sprintf("r=%d rate=%g", r, rate),
				r:    r, rate: rate,
				theta: replicaTheta, putFrac: replicaPutFrac, deadline: replicaDeadline,
			})
		}
	}
	// The routing pair: same hot-shard workload, static key-hash routing
	// against load-aware two-choice.
	for _, static := range []bool{true, false} {
		mode := "loadaware"
		if static {
			mode = "static"
		}
		cells = append(cells, cell{
			name: fmt.Sprintf("hot r=3 rate=%g route=%s", float64(replicaHotRate), mode),
			r:    3, rate: replicaHotRate, static: static,
			theta: replicaHotTheta, deadline: replicaDeadline,
		})
	}
	// The kill pair: same workload, clean and with a follower killed
	// mid-measurement. No request deadline: with failover working, every
	// request must complete, so goodput is exactly 100% and the kill can
	// only show up in the tail.
	for _, kill := range []bool{false, true} {
		name := "kill clean"
		if kill {
			name = "kill follower"
		}
		cells = append(cells, cell{
			name: name,
			r:    2, rate: replicaKillRate,
			putFrac: replicaPutFrac, kill: kill,
		})
	}

	log := sweepLog[ReplicaResult]{sweep: "replicasweep", note: true, t: &t}
	for _, cl := range cells {
		if err := log.record(cl.name, func() (ReplicaResult, *analysis.Report, error) {
			return rn.runReplicaCell(cl.name, cl.r, cl.rate, cl.static, cl.theta, cl.putFrac, cl.deadline, cl.kill, cfg.Requests)
		}); err != nil {
			return t, err
		}
	}

	if err := replicaAcceptance(cfg, log.results); err != nil {
		return t, err
	}
	// The last cell's full report embeds its per-replica attribution.
	return t, log.write(rn.OutDir, artifact{
		header: [][2]string{
			{"requests", fmt.Sprint(cfg.Requests)},
			{"servers", fmt.Sprint(replicaServers)},
			{"total_conns", fmt.Sprint(replicaTotalConns)},
			{"service_us", fmt.Sprintf("%.1f", replicaService.Micros())},
			{"deadline_us", fmt.Sprintf("%.1f", replicaDeadline.Micros())},
			{"attempt_us", fmt.Sprintf("%.1f", replicaAttempt.Micros())},
			{"put_frac", fmt.Sprintf("%.2f", replicaPutFrac)},
			{"rates_per_s", text("%.0f", cfg.Rates)},
		},
		listKey: "cases",
	})
}

// replicaAcceptance enforces the sweep's replication properties on the
// collected cells.
func replicaAcceptance(cfg ReplicaConfig, results []ReplicaResult) error {
	byCell := make(map[string]ReplicaResult, len(results))
	for _, r := range results {
		byCell[r.Case] = r
	}
	for _, r := range results {
		if r.Errors != 0 {
			return fmt.Errorf("bench: replicasweep %q: %d untyped errors, want 0", r.Case, r.Errors)
		}
		if r.RYWViolations != 0 {
			return fmt.Errorf("bench: replicasweep %q: %d read-your-writes violations, want 0", r.Case, r.RYWViolations)
		}
		if r.TransportErrs != 0 {
			return fmt.Errorf("bench: replicasweep %q: %d transport errors, want 0", r.Case, r.TransportErrs)
		}
	}

	// The R ablation: at equal total capacity, replication must pay for
	// itself past the knee — the skewed load saturates R=1's hot shard
	// while R>=2 spreads it. The knee is the highest rate R=1 still
	// serves at >=95% goodput; the grid must straddle it.
	hasBase := false
	for _, r := range cfg.Rs {
		if r == 1 {
			hasBase = true
		}
	}
	if hasBase {
		knee := -1
		for i, rate := range cfg.Rates {
			if byCell[fmt.Sprintf("r=1 rate=%g", rate)].GoodputFrac >= 0.95 {
				knee = i
			}
		}
		if knee < 0 {
			return fmt.Errorf("bench: replicasweep: every rate is past the R=1 knee; lower -replica-rates")
		}
		if knee == len(cfg.Rates)-1 {
			return fmt.Errorf("bench: replicasweep: no rate past the R=1 knee; raise -replica-rates")
		}
		for _, rate := range cfg.Rates[knee+1:] {
			base := byCell[fmt.Sprintf("r=1 rate=%g", rate)]
			for _, r := range cfg.Rs {
				if r == 1 {
					continue
				}
				rep := byCell[fmt.Sprintf("r=%d rate=%g", r, rate)]
				if rep.OK <= base.OK {
					return fmt.Errorf("bench: replicasweep rate=%g: goodput(R=%d)=%d does not beat goodput(R=1)=%d at equal capacity",
						rate, r, rep.OK, base.OK)
				}
			}
		}
	}

	// The routing pair: load-aware two-choice must flatten the hot
	// shard's per-replica attempt spread relative to static key-hash
	// routing, and may not lose goodput doing it.
	static := byCell[fmt.Sprintf("hot r=3 rate=%g route=static", float64(replicaHotRate))]
	aware := byCell[fmt.Sprintf("hot r=3 rate=%g route=loadaware", float64(replicaHotRate))]
	if aware.hotSpread() >= static.hotSpread() {
		return fmt.Errorf("bench: replicasweep: load-aware hot-shard spread %d not below static %d",
			aware.hotSpread(), static.hotSpread())
	}
	if aware.OK < static.OK {
		return fmt.Errorf("bench: replicasweep: load-aware goodput %d below static %d on the hot shard",
			aware.OK, static.OK)
	}

	// The kill pair: losing a follower mid-measurement may cost nothing
	// but tail latency. Every request completes, nothing times out or
	// errors at a client, the replication stream records the loss, and
	// the kill is visible where it should be — the tail — not the median.
	clean, kill := byCell["kill clean"], byCell["kill follower"]
	if kill.OK != kill.Offered {
		return fmt.Errorf("bench: replicasweep kill cell lost goodput: %d OK of %d offered", kill.OK, kill.Offered)
	}
	if kill.TimedOut != 0 || kill.Rejected != 0 || kill.Expired != 0 || kill.Dropped != 0 {
		return fmt.Errorf("bench: replicasweep kill cell surfaced client-visible failures: %+v", kill)
	}
	if kill.DeadFollowers != 1 || kill.ApplyFails == 0 {
		return fmt.Errorf("bench: replicasweep kill cell: applier missed the dead follower (dead=%d apply_fails=%d)",
			kill.DeadFollowers, kill.ApplyFails)
	}
	if kill.P999 <= clean.P999 {
		return fmt.Errorf("bench: replicasweep: kill p999 %.1f us not above clean %.1f us; the kill never bit",
			kill.P999.Micros(), clean.P999.Micros())
	}
	if kill.P50 > clean.P50+10*sim.Microsecond {
		return fmt.Errorf("bench: replicasweep: kill moved the median (%.1f us vs clean %.1f us); failover was not contained to the tail",
			kill.P50.Micros(), clean.P50.Micros())
	}
	return nil
}

// runReplicaCell boots a fresh cluster (nodes 0 and 7 = client front
// ends, nodes 1..6 = servers), builds the replicated tier, and runs one
// open-loop workload through it. Two front-end nodes keep the worker
// count per client process at half the send-queue depth, so concurrent
// sends can never overflow the doorbell ring. kill schedules a follower
// KillProcess two milliseconds into the measured stream.
func (rn *Run) runReplicaCell(name string, r int, rate float64, static bool, theta, putFrac float64, deadline sim.Time, kill bool, requests int) (ReplicaResult, *analysis.Report, error) {
	shards := replicaServers / r
	res := ReplicaResult{Case: name, R: r, Shards: shards, Rate: rate, Static: static}
	cl := rn.newCell("replicasweep " + name)
	opts := vmmc.Options{Nodes: replicaServers + replicaClients, MemBytes: 32 << 20}
	_, err := cl.cluster(opts, "replicasweep", func(p *sim.Proc, c *vmmc.Cluster) error {
		nodes := make([]int, replicaServers)
		for i := range nodes {
			nodes[i] = i + 1
		}
		clients := make([]int, replicaClients)
		for i := 1; i < replicaClients; i++ {
			clients[i] = replicaServers + i // node 0, then 7, 8, ...
		}
		tier, err := replica.Build(p, c, replica.Config{
			Shards:      shards,
			R:           r,
			Nodes:       nodes,
			ClientNodes: clients,
			Conns:       replicaTotalConns / (replicaClients * shards),
			ServiceTime: replicaService,
			Keys:        replicaKeys,
			Admission:   &serve.AdmissionConfig{MaxQueue: replicaMaxQueue, Target: replicaTarget},
			Routing: replica.RoutingConfig{
				Static:         static,
				AttemptTimeout: replicaAttempt,
				Seed:           replicaSeed ^ uint64(r)<<8,
			},
		})
		if err != nil {
			return err
		}
		start := p.Now()
		stats, err := tier.RunOpenLoop(p, serve.WorkloadConfig{
			Rate:     rate,
			Requests: requests,
			Theta:    theta,
			PutFrac:  putFrac,
			Deadline: deadline,
			Seed:     replicaSeed ^ uint64(r)<<32 ^ uint64(rate),
			OnMeasure: func(measure sim.Time) {
				if kill {
					cl.eng.Go("replicasweep:kill", func(kp *sim.Proc) {
						kp.Sleep(measure + 2*sim.Millisecond - kp.Now())
						tier.KillReplica(0, 1)
					})
				}
			},
		})
		if err != nil {
			return err
		}
		fillReplicaResult(&res, tier, stats, p.Now()-start)
		return nil
	})
	return res, cl.rep, err
}

// fillReplicaResult distills workload stats and tier counters into a
// cell result.
func fillReplicaResult(res *ReplicaResult, tier *replica.Tier, stats *replica.Stats, elapsed sim.Time) {
	res.loadCounts, res.loadTail = fillLoad(&stats.Stats, elapsed, tier.TransportErrors())
	res.Puts = stats.Puts
	res.RYWFallbacks = stats.RYWFallbacks
	res.RYWViolations = stats.RYWViolations
	for _, set := range tier.Sets() {
		for _, rep := range set.Replicas {
			res.add(rep.AdmissionCounters)
			res.Applies += rep.Applies
			res.ApplyFails += rep.ApplyFails
			res.ApplySkipped += rep.ApplySkipped
			if rep.Dead {
				res.DeadFollowers++
			}
		}
	}
	for _, rep := range tier.Set(0).Replicas {
		res.HotOffered = append(res.HotOffered, rep.Offered)
	}
}
