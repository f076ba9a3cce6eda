package bench

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// ServeConfig parameterizes the servesweep experiment.
type ServeConfig struct {
	// Rates are the total offered loads in requests/sec. They must
	// straddle the tier's capacity knee: the sweep fails if every rate
	// lands on one side. Nil selects 15000, 30000 and 60000.
	Rates []float64
	// Shards are the shard counts to sweep the rate grid over. Nil
	// selects just 2.
	Shards []int
	// Requests is the offered request count per cell. Zero selects 240.
	Requests int
}

// Fixed tier geometry and policy for the sweep. The deadline sits well
// below the time an unbounded server queue takes to drain at full conn
// fan-in (conns * service), so past the knee the no-admission baseline
// must burn client timeouts while the admission cells shed early.
const (
	serveConns    = 12 // connections (= workers) per shard
	serveService  = 30 * sim.Microsecond
	serveDeadline = 400 * sim.Microsecond
	serveMaxQueue = 6                     // admission: arrival-queue bound
	serveTarget   = 120 * sim.Microsecond // admission: CoDel sojourn target
	serveKeys     = 64
	serveHotTheta = 1.3 // Zipf exponent of the hot-shard cell
	serveSeed     = 0x5E2F7E01
)

// ServeResult is one cell: outcome counts, latency quantiles, and the
// admission machinery's counters. All fields are deterministic.
type ServeResult struct {
	Case      string  `key:"case,%q" col:"case,%s"`
	Shards    int     `key:"shards,%d"`
	Rate      float64 `key:"rate_per_s,%.0f" col:"rate,%.0f/s"`
	Admission bool    `key:"admission,%t"`

	loadCounts
	admitCounts
	loadTail
}

// ServeSweep drives the sharded KV serving tier across offered-load
// rates under open-loop Poisson arrivals with deadlines, comparing
// server-side admission control off (the paper-era baseline: queue
// everything) against on (bounded queue + CoDel-style sojourn shedding)
// at every rate. Satellite cells add a Zipf-hot shard and a mid-run
// link outage healed by the self-healing layer. Acceptance is checked
// in-sweep: past the capacity knee admission must not lose goodput,
// admitted requests keep a bounded tail, typed rejections resolve well
// inside the deadline, and the outage cell finishes with zero victim
// errors. Every quantity in BENCH_serve.json is virtual-time derived, so
// the file is byte-identical across runs.
func (rn *Run) ServeSweep(cfg ServeConfig) (Table, error) {
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{15000, 30000, 60000}
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{2}
	}
	if cfg.Requests < 0 {
		return Table{}, fmt.Errorf("bench: servesweep: %w: %d offered requests per cell", errConfig, cfg.Requests)
	}
	if cfg.Requests == 0 {
		cfg.Requests = 240
	}

	t := Table{
		Title:   "Serve sweep: open-loop KV tier, admission control off/on across the capacity knee",
		Columns: columns(ServeResult{}),
	}

	type cell struct {
		name      string
		shards    int
		rate      float64
		admission bool
		theta     float64
		edge      sim.Time
	}
	var cells []cell
	for _, shards := range cfg.Shards {
		for _, rate := range cfg.Rates {
			for _, adm := range []bool{false, true} {
				mode := "off"
				if adm {
					mode = "on"
				}
				cells = append(cells, cell{
					name:      fmt.Sprintf("s=%d rate=%g adm=%s", shards, rate, mode),
					shards:    shards,
					rate:      rate,
					admission: adm,
				})
			}
		}
	}
	maxShards := cfg.Shards[len(cfg.Shards)-1]
	maxRate := cfg.Rates[len(cfg.Rates)-1]
	cells = append(cells, cell{
		name:   fmt.Sprintf("hot shard s=%d rate=%g theta=%g", maxShards, maxRate, serveHotTheta),
		shards: maxShards, rate: maxRate, admission: true,
		theta: serveHotTheta, edge: 25 * sim.Microsecond,
	})

	log := sweepLog[ServeResult]{sweep: "servesweep", note: true, t: &t}
	for _, cl := range cells {
		if err := log.record(cl.name, func() (ServeResult, *analysis.Report, error) {
			return rn.runServeCell(cl.name, cl.shards, cl.rate, cl.admission, cl.theta, cl.edge, cfg.Requests)
		}); err != nil {
			return t, err
		}
	}

	// The outage pair: same workload on the diamond fabric, clean and
	// with a mid-run link outage under the healing layer.
	for _, outage := range []bool{false, true} {
		name := "fault clean"
		if outage {
			name = "fault outage+heal"
		}
		if err := log.record(name, func() (ServeResult, *analysis.Report, error) {
			return rn.runServeFaultCell(name, outage, cfg.Requests)
		}); err != nil {
			return t, err
		}
	}

	if err := serveAcceptance(cfg, log.results); err != nil {
		return t, err
	}
	// The last cell's full report embeds its per-shard serve attribution.
	return t, log.write(rn.OutDir, artifact{
		header: [][2]string{
			{"requests", fmt.Sprint(cfg.Requests)},
			{"conns_per_shard", fmt.Sprint(serveConns)},
			{"service_us", fmt.Sprintf("%.1f", serveService.Micros())},
			{"deadline_us", fmt.Sprintf("%.1f", serveDeadline.Micros())},
			{"max_queue", fmt.Sprint(serveMaxQueue)},
			{"sojourn_target_us", fmt.Sprintf("%.1f", serveTarget.Micros())},
			{"rates_per_s", text("%.0f", cfg.Rates)},
		},
		listKey: "cases",
	})
}

// serveAcceptance enforces the sweep's robustness properties on the
// collected cells.
func serveAcceptance(cfg ServeConfig, results []ServeResult) error {
	byCell := make(map[string]ServeResult, len(results))
	for _, r := range results {
		byCell[r.Case] = r
	}
	for _, shards := range cfg.Shards {
		// The knee: the highest rate the no-admission baseline still
		// serves at >=95% goodput. The grid must straddle it.
		knee := -1
		for i, rate := range cfg.Rates {
			off := byCell[fmt.Sprintf("s=%d rate=%g adm=off", shards, rate)]
			if off.GoodputFrac >= 0.95 {
				knee = i
			}
		}
		if knee < 0 {
			return fmt.Errorf("bench: servesweep s=%d: every rate is past the knee; lower -serve-rates", shards)
		}
		if knee == len(cfg.Rates)-1 {
			return fmt.Errorf("bench: servesweep s=%d: no rate past the knee; raise -serve-rates", shards)
		}
		for _, rate := range cfg.Rates[knee+1:] {
			off := byCell[fmt.Sprintf("s=%d rate=%g adm=off", shards, rate)]
			on := byCell[fmt.Sprintf("s=%d rate=%g adm=on", shards, rate)]
			// Past the knee admission control must pay for itself:
			// shedding work early may not cost goodput.
			if on.OK < off.OK {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: goodput(on)=%d < goodput(off)=%d",
					shards, rate, on.OK, off.OK)
			}
			if on.ShedArrive+on.ShedServe == 0 {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: admission never engaged past the knee", shards, rate)
			}
			// Shed requests fail fast as typed errors — well inside the
			// deadline a timeout would burn — and admitted requests keep
			// a bounded tail.
			if on.Rejected+on.Expired == 0 {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: no typed rejections reached clients", shards, rate)
			}
			if on.ShedP99 >= serveDeadline {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: shed p99 %.1f us not inside the %.0f us deadline",
					shards, rate, on.ShedP99.Micros(), serveDeadline.Micros())
			}
			if on.OK > 0 && on.P99 > serveDeadline {
				return fmt.Errorf("bench: servesweep s=%d rate=%g: admitted p99 %.1f us exceeds the deadline",
					shards, rate, on.P99.Micros())
			}
		}
	}
	for _, r := range results {
		if r.Errors != 0 {
			return fmt.Errorf("bench: servesweep %q: %d untyped errors, want 0", r.Case, r.Errors)
		}
		if r.TransportErrs != 0 {
			return fmt.Errorf("bench: servesweep %q: %d transport errors, want 0", r.Case, r.TransportErrs)
		}
	}
	clean, outage := byCell["fault clean"], byCell["fault outage+heal"]
	if outage.OK != outage.Offered || outage.TimedOut != 0 {
		return fmt.Errorf("bench: servesweep outage cell lost requests: %+v", outage)
	}
	// The stall must be visible in the tail — requests in flight during
	// the outage wait out the link's recovery — while the open-loop
	// stream absorbs it: zero victim errors, nothing lost or timed out.
	if outage.P999 <= clean.P999 {
		return fmt.Errorf("bench: servesweep: outage p999 %.1f us not above clean %.1f us; the outage never bit",
			outage.P999.Micros(), clean.P999.Micros())
	}
	return nil
}

// runServeCell boots a fresh cluster (node 0 = client front end, nodes
// 1..shards = shard servers), builds the tier, and runs one open-loop
// workload through it.
func (rn *Run) runServeCell(name string, shards int, rate float64, admission bool, theta float64, edge sim.Time, requests int) (ServeResult, *analysis.Report, error) {
	res := ServeResult{Case: name, Shards: shards, Rate: rate, Admission: admission}
	cl := rn.newCell("servesweep " + name)
	_, err := cl.cluster(vmmc.Options{Nodes: shards + 1, MemBytes: 16 << 20}, "servesweep", func(p *sim.Proc, c *vmmc.Cluster) error {
		shardNodes := make([]int, shards)
		for i := range shardNodes {
			shardNodes[i] = i + 1
		}
		tcfg := serve.Config{
			ShardNodes:  shardNodes,
			ClientNodes: []int{0},
			Conns:       serveConns,
			ServiceTime: serveService,
			Keys:        serveKeys,
		}
		if admission {
			tcfg.Admission = &serve.AdmissionConfig{MaxQueue: serveMaxQueue, Target: serveTarget}
		}
		return runServeLoad(p, c, &res, tcfg, serve.WorkloadConfig{
			Rate:        rate,
			Requests:    requests,
			Theta:       theta,
			Deadline:    serveDeadline,
			EdgeLatency: edge,
			Seed:        serveSeed ^ uint64(shards)<<32 ^ uint64(rate),
		})
	})
	return res, cl.rep, err
}

// runServeFaultCell runs a single-shard tier across the diamond fabric
// (client on edge0, shard on edge1, every request crossing a spine)
// with the reliability and healing layers on. The outage variant takes
// the shard's link down mid-run; recovery must be invisible to clients:
// no deadline is set, so every request simply completes once healing
// and retransmission deliver it.
func (rn *Run) runServeFaultCell(name string, outage bool, requests int) (ServeResult, *analysis.Report, error) {
	const faultRate = 10000
	res := ServeResult{Case: name, Shards: 1, Rate: faultRate}
	cl := rn.newCell("servesweep " + name)
	pl := fault.NewPlan(cl.eng, serveSeed)
	_, err := cl.cluster(healing(4, pl, 8), "servesweep:fault", func(p *sim.Proc, c *vmmc.Cluster) error {
		tcfg := serve.Config{
			ShardNodes:  []int{2},
			ClientNodes: []int{0},
			Conns:       4,
			ServiceTime: serveService,
			Keys:        serveKeys,
		}
		return runServeLoad(p, c, &res, tcfg, serve.WorkloadConfig{
			Rate:     faultRate,
			Requests: requests,
			Seed:     serveSeed + 2,
			OnMeasure: func(measure sim.Time) {
				if outage {
					// A third of the way into the measured stream, for
					// 3 ms — long enough that go-back-N stalls and the
					// healing layer must carry the recovery.
					at := measure + 4*sim.Millisecond
					pl.LinkOutage(c.Nodes[2].Board.NIC.ID, at, at+3*sim.Millisecond)
				}
			},
		})
	})
	return res, cl.rep, err
}

// runServeLoad is the tail every serve cell shares: build the tier on the
// booted cluster, run one open-loop workload through it, and distill the
// workload stats and tier counters into res.
func runServeLoad(p *sim.Proc, c *vmmc.Cluster, res *ServeResult, tcfg serve.Config, wcfg serve.WorkloadConfig) error {
	tier, err := serve.Build(p, c, tcfg)
	if err != nil {
		return err
	}
	start := p.Now()
	stats, err := tier.RunOpenLoop(p, wcfg)
	if err != nil {
		return err
	}
	res.loadCounts, res.loadTail = fillLoad(stats, p.Now()-start, tier.TransportErrors())
	for _, sh := range tier.Shards() {
		res.add(sh.AdmissionCounters)
	}
	return nil
}
