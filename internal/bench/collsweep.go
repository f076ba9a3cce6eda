package bench

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// CollConfig parameterizes the collective-communication sweep.
type CollConfig struct {
	// Nodes lists communicator sizes (one rank per node). Empty selects
	// 4 -> 8 -> 16.
	Nodes []int
	// Sizes lists all-reduce vector sizes in bytes (int32 sum vectors).
	// Empty selects 64 B -> 1 KB -> 16 KB -> 128 KB, straddling the
	// tree/ring crossover.
	Sizes []int
	// Iters is how many measured all-reduces each cell runs (after one
	// barrier-synchronized warmup). Zero selects 2.
	Iters int
}

// CollResult is one cell: an (n ranks, vector size, algorithm) triple.
type CollResult struct {
	Nodes        int            `key:"nodes,%d" col:"nodes,%d"`
	Bytes        int            `key:"bytes,%d" col:"bytes,%d"`
	Algo         coll.Algorithm `key:"algorithm,%q" col:"algorithm,%s"`
	PerOp        sim.Time       `key:"per_op_us,%.3f" col:"per-op,%.1f us"`       // measured virtual time per all-reduce
	ModelEst     sim.Time       `key:"model_est_us,%.3f" col:"model est,%.1f us"` // the cost model's prediction for this cell
	ModelChoice  bool           `key:"model_choice,%t" col:"auto picks"`          // Auto would pick this algorithm here
	PayloadMsgs  int64          `key:"payload_msgs,%d" col:"payload msgs,%d"`     // credited payload messages the cell moved
	CreditStalls int64          `key:"credit_stalls,%d" col:"credit stalls,%d"`
}

// computed renders the auto-picks column: an arrow on the model's choice.
func (r CollResult) computed() string {
	if r.ModelChoice {
		return "<-"
	}
	return ""
}

// CollHealResult is the heal-interop cell: a ring all-reduce sequence on
// the diamond fabric with a link outage healed under it. Its table row
// sits under CollResult's columns.
type CollHealResult struct {
	Nodes         int            `key:"nodes,%d" col:"nodes,%d"`
	Bytes         int            `key:"bytes,%d" col:"bytes,%d"`
	Algo          coll.Algorithm `col:"algorithm,%s+heal"`
	Rounds        int            `key:"rounds,%d"`
	CleanElapsed  sim.Time       `key:"clean_elapsed_us,%.3f" col:"model est,%.1f us"`
	HealedElapsed sim.Time       `key:"healed_elapsed_us,%.3f" col:"per-op,%.1f us"`
	ResultsMatch  bool           `key:"results_match,%t" col:"payload msgs,match=%t"`
	SendFailures  int64          `key:"send_failures,%d" col:"credit stalls,fails=%d"`
	Retransmits   int64          `key:"retransmits,%d"`
}

// CollSweep measures all-reduce completion time across communicator
// sizes, vector sizes, and both algorithm families, checks the measured
// crossover against the cost model, and finishes with the heal-interop
// cell. BENCH_coll.json holds only virtual-time quantities, so it is
// byte-identical across runs and machines.
func (rn *Run) CollSweep(cfg CollConfig) (Table, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{4, 8, 16}
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{64, 1 << 10, 16 << 10, 128 << 10}
	}
	if cfg.Iters == 0 {
		cfg.Iters = 2
	}
	t := Table{
		Title:   "Collective sweep: all-reduce (int32 sum), binomial tree vs pipelined ring",
		Columns: columns(CollResult{}),
	}

	log := sweepLog[CollResult]{sweep: "collsweep", t: &t}
	for _, n := range cfg.Nodes {
		for _, size := range cfg.Sizes {
			for _, algo := range []coll.Algorithm{coll.Tree, coll.Ring} {
				err := log.record(fmt.Sprintf("%d nodes/%d B", n, size), func() (CollResult, *analysis.Report, error) {
					return rn.runCollCase(n, size, algo, cfg.Iters)
				})
				if err != nil {
					return t, err
				}
			}
		}
	}

	heal, healRep, err := rn.runCollHealCase()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, row(heal, t.Columns))
	t.Notes = append(t.Notes,
		"auto picks: the calibrated cost model's per-cell choice; it must track the measured minimum at the extremes",
		"ring+heal row: 3 chained ring all-reduces on the diamond fabric across a healed link outage; 'model est' column holds the fault-free elapsed time")
	n := len(log.results)
	last := log.results[n-1]
	t.Notes = append(t.Notes,
		analysisNote(fmt.Sprintf("%d nodes, %d B, %s", last.Nodes, last.Bytes, last.Algo), log.reports[n-1]),
		analysisNote("ring+heal", healRep))

	return t, log.write(rn.OutDir, artifact{
		header: [][2]string{
			{"operation", `"allreduce-int32-sum"`},
			{"iters", fmt.Sprint(cfg.Iters)},
		},
		listKey: "configs",
		extra:   [][2]string{{"heal_interop", object(heal, healRep.Verdict)}},
	})
}

// buildComms creates one process per node of c and the communicator over
// them (rank i on node i).
func buildComms(p *sim.Proc, c *vmmc.Cluster) ([]*vmmc.Process, []*coll.Comm, error) {
	procs := make([]*vmmc.Process, len(c.Nodes))
	for i := range procs {
		var err error
		if procs[i], err = c.Nodes[i].NewProcess(p); err != nil {
			return nil, nil, err
		}
	}
	comms, err := coll.Build(p, procs, coll.Options{})
	return procs, comms, err
}

// forRanks runs body as n concurrent processes, rank0 .. rank<n-1>, and
// parks p until all of them have returned or one has failed; it returns
// that first failure without waiting for the ranks it stranded.
func forRanks(p *sim.Proc, n int, body func(rp *sim.Proc, rank int) error) error {
	var failed error
	done := 0
	cond := sim.NewCond(p.Engine())
	for r := 0; r < n; r++ {
		p.Engine().Go(fmt.Sprintf("rank%d", r), func(rp *sim.Proc) {
			if err := body(rp, r); err != nil && failed == nil {
				failed = fmt.Errorf("rank %d: %w", r, err)
			}
			done++
			cond.Broadcast()
		})
	}
	for done < n && failed == nil {
		cond.Wait(p)
	}
	return failed
}

// runCollCase measures one sweep cell: barrier-synchronized warmup, then
// iters all-reduces, all on a default single-fabric cluster.
func (rn *Run) runCollCase(nodes, size int, algo coll.Algorithm, iters int) (CollResult, *analysis.Report, error) {
	res := CollResult{Nodes: nodes, Bytes: size, Algo: algo}
	cl := rn.newCell(fmt.Sprintf("collsweep %d nodes/%d B/%s", nodes, size, algo))
	_, err := cl.cluster(vmmc.Options{Nodes: nodes}, "collsweep", func(p *sim.Proc, c *vmmc.Cluster) error {
		_, comms, err := buildComms(p, c)
		if err != nil {
			return err
		}
		model := comms[0].Model()
		res.ModelEst = model.Estimate(coll.KAllReduce, algo, nodes, size, 16<<10)
		res.ModelChoice = model.Choose(coll.KAllReduce, nodes, size, 16<<10) == algo

		var start, finish sim.Time
		err = forRanks(p, nodes, func(rp *sim.Proc, r int) error {
			cm := comms[r]
			in := collVector(size, r)
			out := make([]byte, len(in))
			work := func() error { return cm.AllReduce(rp, in, out, coll.OpSum, coll.Int32, algo) }
			// warmup: pipelines, TLBs, and handlers are hot after this
			if err := work(); err != nil {
				return err
			}
			if err := cm.Barrier(rp); err != nil {
				return err
			}
			if r == 0 {
				start = rp.Now()
			}
			for i := 0; i < iters; i++ {
				if err := work(); err != nil {
					return err
				}
			}
			if err := cm.Barrier(rp); err != nil {
				return err
			}
			if r == 0 {
				finish = rp.Now()
			}
			return nil
		})
		res.PerOp = (finish - start) / sim.Time(iters)
		return err
	})
	if err != nil {
		return CollResult{}, nil, err
	}
	res.PayloadMsgs = cl.count("coll/payload_msgs")
	res.CreditStalls = cl.count("coll/credit_stalls")
	return res, cl.rep, nil
}

// collVector is the deterministic int32 sum input of one rank.
func collVector(bytes, rank int) []byte {
	v := make([]int32, bytes/4)
	for i := range v {
		v[i] = int32((rank+1)*(i%31+1) - 16)
	}
	return coll.EncodeInt32s(v)
}

// runCollHealCase chains ring all-reduces on the diamond fabric twice —
// fault-free, then with a mid-sequence link outage under the healing
// layer — and requires byte-identical results with zero visible errors.
func (rn *Run) runCollHealCase() (CollHealResult, *analysis.Report, error) {
	const nodes = 4
	const size = 16 << 10
	const rounds = 3
	run := func(cl *cell, withOutage bool) ([][]byte, sim.Time, int64, int64, error) {
		pl := fault.NewPlan(cl.eng, 0x4EA1)
		results := make([][]byte, nodes)
		var elapsed sim.Time
		var fails int64
		_, err := cl.cluster(healing(nodes, pl, 8), "collsweep:heal", func(p *sim.Proc, c *vmmc.Cluster) error {
			procs, comms, err := buildComms(p, c)
			if err != nil {
				return err
			}
			if withOutage {
				pl.LinkOutage(c.Nodes[2].Board.NIC.ID,
					p.Now()+400*sim.Microsecond, p.Now()+3*sim.Millisecond)
			}
			start := p.Now()
			err = forRanks(p, nodes, func(rp *sim.Proc, r int) error {
				acc := collVector(size, r)
				out := make([]byte, len(acc))
				for i := 0; i < rounds; i++ {
					if err := comms[r].AllReduce(rp, acc, out, coll.OpSum, coll.Int32, coll.Ring); err != nil {
						return err
					}
					copy(acc, out)
				}
				results[r] = out
				return nil
			})
			elapsed = p.Now() - start
			for _, proc := range procs {
				fails += proc.Errors().SendFailures
			}
			return err
		})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		var retrans int64
		for _, cv := range cl.snap.Counters {
			if strings.HasSuffix(cv.Name, "/rl_retransmits") {
				retrans += cv.Value
			}
		}
		return results, elapsed, fails, retrans, nil
	}

	clean, cleanElapsed, cleanFails, _, err := run(rn.newCell("collsweep ring+heal, fault-free"), false)
	if err != nil {
		return CollHealResult{}, nil, err
	}
	healedCell := rn.newCell("collsweep ring+heal, outage")
	healed, healedElapsed, healedFails, retrans, err := run(healedCell, true)
	if err != nil {
		return CollHealResult{}, nil, err
	}
	res := CollHealResult{
		Nodes: nodes, Bytes: size, Algo: coll.Ring, Rounds: rounds,
		CleanElapsed:  cleanElapsed,
		HealedElapsed: healedElapsed,
		ResultsMatch:  true,
		SendFailures:  cleanFails + healedFails,
		Retransmits:   retrans,
	}
	for r := range clean {
		if string(clean[r]) != string(healed[r]) {
			res.ResultsMatch = false
		}
	}
	if !res.ResultsMatch {
		return res, nil, fmt.Errorf("bench: collsweep heal cell: healed results differ from fault-free")
	}
	if res.SendFailures != 0 {
		return res, nil, fmt.Errorf("bench: collsweep heal cell: %d application-visible send failures, want 0", res.SendFailures)
	}
	if healedElapsed <= cleanElapsed {
		return res, nil, fmt.Errorf("bench: collsweep heal cell: healed run (%v) not slower than fault-free (%v)",
			healedElapsed, cleanElapsed)
	}
	return res, healedCell.rep, nil
}
