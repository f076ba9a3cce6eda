package bench

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/coll"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// TenantConfig parameterizes the tenantsweep experiment.
type TenantConfig struct {
	// Calls is the victim's vRPC count per cell. Zero selects 32; a cell
	// needs at least two (the crash cell kills the neighbor half way).
	Calls int
	// Rates are the declared aggressor budgets for the qos=on rate sweep,
	// in bytes/sec. These should sit well below the wire rate so the pacer
	// demonstrably engages during the measured window (the base cells'
	// tenantAggRate of 40 MB/s rarely does for short runs). Nil selects 5,
	// 10 and 20 MB/s; an explicit empty slice is replaced by the default too.
	Rates []float64
}

// The aggressor's all-reduce payload (the noisy-neighbor size), and its
// link budget under QoS in bytes/sec outside the rate sweep: a quarter of
// the 160 MB/s wire.
const (
	tenantAggBytes = 128 << 10
	tenantAggRate  = 40e6
)

// TenantResult is one cell: the victim's vRPC latency distribution under
// a given co-residency regime, plus the isolation machinery's counters.
// All fields are deterministic.
type TenantResult struct {
	Case       string   `key:"case,%q" col:"case,%s"`
	QoS        bool     `key:"qos,%t"`
	Crashed    bool     `key:"crashed,%t"`
	Rate       float64  `key:"rate_b_s,%.0f"` // aggressor's declared link budget, 0 when solo
	Calls      int      `key:"calls,%d" col:"calls,%d"`
	P50        sim.Time `key:"p50_us,%.3f" col:"p50,%.1f us"`
	P99        sim.Time `key:"p99_us,%.3f" col:"p99,%.1f us"`
	Max        sim.Time `key:"max_us,%.3f" col:"max,%.1f us"`
	AggOps     int64    `key:"agg_ops,%d" col:"agg ops,%d"`     // aggressor all-reduces completed
	Throttles  int64    `key:"throttles,%d" col:"throttles,%d"` // aggressor sends delayed by the link pacer
	Throttled  sim.Time `key:"throttled_us,%.3f" col:"throttled,%.1f us"`
	Preempts   int64    `key:"preempts,%d" col:"preempts,%d"` // victim short sends served between aggressor chunks
	VictimErrs int64    `key:"victim_errors,%d"`
}

// TenantSweep is the noisy-neighbor experiment: a latency-sensitive
// vRPC tenant shares a two-node cluster with a bulk tenant running
// 128 KB all-reduces. Cells measure the victim's p50/p99 call latency
// solo, shared with QoS off (the aggressor monopolizes the LCP and
// link), shared with QoS on (short-send preemption plus a token-bucket
// link budget on the aggressor's class), and shared with the aggressor
// killed mid-run (blast-radius containment: the victim must finish with
// zero errors). Every quantity in BENCH_tenant.json is virtual-time
// derived, so the file is byte-identical across runs; per-tenant
// attribution rides in each cell's analysis report.
func (rn *Run) TenantSweep(cfg TenantConfig) (Table, error) {
	if cfg.Calls < 0 || cfg.Calls == 1 {
		return Table{}, fmt.Errorf("bench: tenantsweep: %w: %d victim calls per cell, want at least 2", errConfig, cfg.Calls)
	}
	if cfg.Calls == 0 {
		cfg.Calls = 32
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{5e6, 10e6, 20e6}
	}
	sort.Float64s(cfg.Rates)

	t := Table{
		Title:   "Tenant sweep: victim vRPC latency vs a 128 KB all-reduce neighbor (2 nodes)",
		Columns: columns(TenantResult{}),
	}

	type cell struct {
		name  string
		qos   bool
		crash bool
		rate  float64 // the aggressor's declared link budget; 0 runs the victim solo
	}
	cells := []cell{
		{name: "solo"},
		{name: "shared qos=off", rate: tenantAggRate},
		{name: "shared qos=on", qos: true, rate: tenantAggRate},
		{name: "crash qos=on", qos: true, crash: true, rate: tenantAggRate},
	}
	// The rate sweep: the qos=on cell repeated at declared budgets low
	// enough that the pacer engages inside the measured window, pinning
	// the victim-p99-vs-rate curve.
	for _, rate := range cfg.Rates {
		cells = append(cells, cell{
			name: fmt.Sprintf("shared qos=on rate=%gMB/s", rate/1e6),
			qos:  true, rate: rate,
		})
	}

	log := sweepLog[TenantResult]{sweep: "tenantsweep", note: true, t: &t}
	for _, cl := range cells {
		if err := log.record(cl.name, func() (TenantResult, *analysis.Report, error) {
			return rn.runTenantCase(cl.name, cl.qos, cl.crash, cfg.Calls, cl.rate)
		}); err != nil {
			return t, err
		}
	}

	// The acceptance property: QoS must bound the victim's tail. A shared
	// run with QoS on may not be slower than the same run with QoS off at
	// p99, and both shared cells must beat nothing — the solo cell is the
	// floor.
	var off, on TenantResult
	var sweep []TenantResult
	for _, r := range log.results {
		switch {
		case r.Case == "shared qos=off":
			off = r
		case r.Case == "shared qos=on":
			on = r
		case r.QoS && !r.Crashed && r.Rate != 0:
			sweep = append(sweep, r)
		}
	}
	if on.P99 >= off.P99 {
		return t, fmt.Errorf("bench: tenantsweep: qos=on p99 %.1f us did not improve on qos=off %.1f us",
			on.P99.Micros(), off.P99.Micros())
	}

	// Rate-sweep acceptance: at every swept budget the pacer must have
	// demonstrably engaged (nonzero throttles) yet the victim's tail must
	// still beat the unpaced shared run — the whole point of deficit-skip
	// scheduling is that a heavily paced neighbor cannot make the victim
	// worse. Along the curve (rates ascending), a looser aggressor budget
	// must not reduce the pacer's accumulated deferral time: throttled
	// time per unit of budget is monotone.
	for i, r := range sweep {
		if r.Throttles == 0 {
			return t, fmt.Errorf("bench: tenantsweep %q: pacer never engaged (0 throttles); sweep rate too high",
				r.Case)
		}
		if r.P99 >= off.P99 {
			return t, fmt.Errorf("bench: tenantsweep %q: victim p99 %.1f us did not beat qos=off %.1f us",
				r.Case, r.P99.Micros(), off.P99.Micros())
		}
		if i > 0 && r.Throttled > sweep[i-1].Throttled {
			return t, fmt.Errorf("bench: tenantsweep: throttled time not monotone: %q %.1f us > %q %.1f us",
				r.Case, r.Throttled.Micros(), sweep[i-1].Case, sweep[i-1].Throttled.Micros())
		}
	}

	return t, log.write(rn.OutDir, artifact{
		header: [][2]string{
			{"calls", fmt.Sprint(cfg.Calls)},
			{"aggressor_bytes", fmt.Sprint(tenantAggBytes)},
			{"aggressor_rate_b_s", fmt.Sprintf("%.0f", tenantAggRate)},
			{"sweep_rates_b_s", text("%.0f", cfg.Rates)},
		},
		listKey: "cases",
	})
}

// runTenantCase boots a two-node reliable cluster, admits the victim
// (and, at a nonzero rate, the aggressor with that link budget) through
// the tenant manager, runs the workloads, and distills the victim's
// latency distribution over calls measured calls.
func (rn *Run) runTenantCase(name string, qos, crash bool, calls int, rate float64) (TenantResult, *analysis.Report, error) {
	res := TenantResult{Case: name, QoS: qos, Rate: rate}
	var latencies []sim.Time

	cl := rn.newCell("tenantsweep " + name)
	c, err := cl.cluster(vmmc.Options{Nodes: 2, MemBytes: 16 << 20, Reliable: true}, "tenantsweep", func(p *sim.Proc, c *vmmc.Cluster) error {
		mgr := tenant.NewManager(c)
		mgr.SetQoS(qos)

		// Two tenants per node means partitioned budgets: two full-size
		// TLB carves do not fit one board's SRAM.
		small := vmmc.ProcLimits{SendQueueEntries: 8, TLBEntries: 256}

		var agg *tenant.Tenant
		var aggOps int64
		stop := false
		aggDone := 0
		aggCond := sim.NewCond(cl.eng)
		if rate != 0 {
			var err error
			agg, err = mgr.Admit(p, tenant.Spec{
				Name: "bulk", Nodes: []int{0, 1}, Limits: small,
				LinkBytesPerSec: rate,
			})
			if err != nil {
				return err
			}
			// Default credit depth (2×16 KB): the ring algorithms split
			// oversized rounds into credit-window sub-rounds, so the 64 KB
			// per-round block at n=2 no longer needs a deepened pipeline.
			comms, err := coll.Build(p, agg.Procs, coll.Options{})
			if err != nil {
				return err
			}
			for r := range comms {
				r := r
				w := cl.eng.Go(fmt.Sprintf("bulk-rank%d", r), func(rp *sim.Proc) {
					defer func() { aggDone++; aggCond.Broadcast() }()
					cm := comms[r]
					in := collVector(tenantAggBytes, r)
					out := make([]byte, len(in))
					fout := make([]byte, 4)
					for {
						// The stop decision is itself collective: each rank
						// contributes its local view and all ranks exit in
						// the same iteration. A bare per-rank check races —
						// one rank can enter the next all-reduce just before
						// stop flips while its peer sees the flag and exits,
						// stranding the first mid-collective.
						flag := []int32{0}
						if stop {
							flag[0] = 1
						}
						if err := cm.AllReduce(rp, coll.EncodeInt32s(flag), fout, coll.OpMax, coll.Int32, coll.Tree); err != nil {
							if agg.State() == tenant.Admitted {
								cl.done(fmt.Errorf("aggressor rank %d: %w", r, err))
							}
							return
						}
						if votes, err := coll.DecodeInt32s(fout); err != nil || votes[0] != 0 {
							return
						}
						if err := cm.AllReduce(rp, in, out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
							// Expected only after a kill (the crash cell);
							// anywhere else it is a real failure.
							if agg.State() == tenant.Admitted {
								cl.done(fmt.Errorf("aggressor rank %d: %w", r, err))
							}
							return
						}
						if r == 0 {
							aggOps++
						}
					}
				})
				agg.AddWorker(w)
			}
		}

		victim, err := mgr.Admit(p, tenant.Spec{
			Name: "victim", Nodes: []int{0, 1}, Limits: small,
		})
		if err != nil {
			return err
		}
		srv, err := rpc.NewServer(p, victim.Procs[1], 1)
		if err != nil {
			return err
		}
		srv.Register(1, 1, 1, func(sp *sim.Proc, args *xdr.Decoder, results *xdr.Encoder) uint32 {
			v, err := args.Uint32()
			if err != nil {
				return xdr.AcceptGarbageArgs
			}
			results.PutUint32(v + 1)
			return xdr.AcceptSuccess
		})
		srv.Start()
		cli, err := rpc.Dial(p, victim.Procs[0], 1, 0)
		if err != nil {
			return err
		}

		// Warmup calls populate the TLBs and pin the RPC windows so the
		// measured tail reflects neighbor interference, not cold start.
		const warmup = 4
		for i := 0; i < warmup+calls; i++ {
			begin := p.Now()
			callErr := cli.Call(p, 1, 1, 1, func(enc *xdr.Encoder) {
				enc.PutUint32(uint32(i))
			}, func(dec *xdr.Decoder) error {
				v, err := dec.Uint32()
				if err != nil {
					return err
				}
				if v != uint32(i)+1 {
					return fmt.Errorf("echo returned %d, want %d", v, i+1)
				}
				return nil
			})
			if callErr != nil {
				return fmt.Errorf("call %d: %w", i, callErr)
			}
			if i < warmup {
				continue
			}
			latencies = append(latencies, p.Now()-begin)
			if crash && i-warmup == calls/2-1 {
				// The neighbor crashes mid-run; the victim must not notice.
				if err := mgr.Kill("bulk"); err != nil {
					return err
				}
				res.Crashed = true
			}
		}

		if agg != nil {
			// Read the pacer's attribution before teardown frees the class.
			// The aggressor's class is the only budgeted one on these
			// boards, so its per-class stats must reconcile exactly with
			// the scheduler's totals — the deficit-skip path (Defer /
			// TryCharge) must attribute every deferral to its class.
			snap := c.Eng.MetricsSnapshot()
			for _, id := range agg.Nodes {
				if ls := c.Nodes[id].Board.LinkScheduler(); ls != nil {
					n, d := ls.ClassStats(agg.Class)
					comp := fmt.Sprintf("lanai%d", c.Nodes[id].Board.NIC.ID)
					total, _ := snap.Counter(comp + "/qos_throttles")
					totalNS, _ := snap.Counter(comp + "/qos_throttled_ns")
					if n != total || int64(d) != totalNS {
						return fmt.Errorf("node %d pacer attribution leak: class (%d, %v) vs total (%d, %v)",
							id, n, d, total, sim.Time(totalNS))
					}
					res.Throttles += n
					res.Throttled += d
				}
			}
			res.AggOps = aggOps
			if agg.State() == tenant.Admitted {
				stop = true
				for aggDone < len(agg.Procs) {
					aggCond.Wait(p)
				}
				mgr.EmitUsage(agg)
			}
		}
		mgr.EmitUsage(victim)

		verrs := victim.Procs[0].Errors()
		rerrs := victim.Procs[1].Errors()
		res.VictimErrs = verrs.SendFailures + verrs.ImportFailures +
			rerrs.SendFailures + rerrs.ImportFailures
		if res.VictimErrs != 0 {
			return fmt.Errorf("victim surfaced %d errors, want 0", res.VictimErrs)
		}
		if crash && !res.Crashed {
			return errors.New("crash cell never killed the aggressor")
		}
		return nil
	})
	if err != nil {
		return TenantResult{}, nil, err
	}

	res.Calls = len(latencies)
	sorted := append([]sim.Time(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.P50 = quantile(sorted, 50, 100)
	res.P99 = quantile(sorted, 99, 100)
	res.Max = sorted[len(sorted)-1]
	for i := 0; i < 2; i++ {
		res.Preempts += cl.count(fmt.Sprintf("node%d/lcp_short_preempts", c.Nodes[i].ID))
	}
	return res, cl.rep, nil
}
