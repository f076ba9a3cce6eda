package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// ScaleConfig parameterizes the scalesweep experiment.
type ScaleConfig struct {
	// Nodes lists the cluster sizes to sweep. Empty selects the default
	// 16 -> 64 -> 256 ladder.
	Nodes []int
	// MsgBytes is the per-message payload (at most one page: each
	// sender owns one page-sized slot in every receiver's export, which
	// keeps a 256-node all-to-all inside the 2048-entry outgoing page
	// table). Zero selects 1024.
	MsgBytes int
	// Rounds is how many messages each ordered node pair exchanges.
	// Zero selects 2.
	Rounds int
}

// ScaleResult is one row of the sweep, mixing virtual-time quantities
// (deterministic) with wall-clock simulator throughput: wall_seconds,
// events_per_sec, allocs_per_event and heap_sys_mb differ between runs.
type ScaleResult struct {
	Nodes          int      `key:"nodes,%d" col:"nodes,%d"`
	Messages       int      `key:"messages,%d" col:"messages,%d"`
	PayloadBytes   int64    `key:"payload_bytes,%d"`
	VirtualElapsed sim.Time `key:"virtual_elapsed_us,%.3f" col:"virtual time,%.1f us"`
	GoodputMBps    float64  `key:"goodput_mb_s,%.2f" col:"goodput,%.1f MB/s"`
	WallSeconds    float64  `key:"wall_seconds,%.3f" col:"wall time,%.2f s"`
	Events         uint64   `key:"events_dispatched,%d" col:"events,%d"`      // executed events, evaluated spin samples included
	SamplesElided  uint64   `key:"samples_elided,%d" col:"samples elided,%d"` // spin samples skipped unexecuted (sim.SchedStats.Elided)
	EventsPerSec   float64  `key:"events_per_sec,%.0f" col:"events/sec,%.0f"`
	AllocsPerEvent float64  `key:"allocs_per_event,%.3f" col:"allocs/event,%.2f"`
	PeakEventHeap  int      `key:"peak_event_heap,%d" col:"peak heap,%d"`
	Compactions    uint64   `key:"compactions,%d" col:"compactions,%d"`
	HeapSysMB      float64  `key:"heap_sys_mb,%.1f"`
}

// barrier parks processes until target of them have arrived, then
// releases the generation together. Reusable across phases.
type barrier struct {
	c         *sim.Cond
	n, target int
	gen       int
}

func newBarrier(eng *sim.Engine, target int) *barrier {
	return &barrier{c: sim.NewCond(eng), target: target}
}

func (b *barrier) await(p *sim.Proc) {
	gen := b.gen
	if b.n++; b.n == b.target {
		b.n = 0
		b.gen++
		b.c.Broadcast()
		return
	}
	for gen == b.gen {
		b.c.Wait(p)
	}
}

// sema is a counting semaphore over virtual time. The import phase runs
// under one: the daemons' handshake rides the shared Ethernet, whose
// serializing medium congests past the retry budget if every node fires
// its imports at once — the cap keeps the offered load inside what the
// bus can carry, as a real job launcher's staged startup would.
type sema struct {
	c      *sim.Cond
	active int
	limit  int
}

func newSema(eng *sim.Engine, limit int) *sema {
	return &sema{c: sim.NewCond(eng), limit: limit}
}

func (s *sema) acquire(p *sim.Proc) {
	for s.active >= s.limit {
		s.c.Wait(p)
	}
	s.active++
}

func (s *sema) release() {
	s.active--
	s.c.Signal()
}

// ScaleSweep runs all-to-all traffic on growing clusters and reports both
// the model's goodput (virtual time) and the simulator's own throughput
// (events per wall-clock second) — the quantity BENCH_scale.json tracks
// across PRs.
func (rn *Run) ScaleSweep(cfg ScaleConfig) (Table, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{16, 64, 256}
	}
	if cfg.MsgBytes == 0 {
		cfg.MsgBytes = 1024
	}
	if cfg.MsgBytes > mem.PageSize {
		return Table{}, fmt.Errorf("bench: scalesweep message %d exceeds one page", cfg.MsgBytes)
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 2
	}

	t := Table{
		Title:   "Scale sweep: all-to-all traffic, virtual goodput vs simulator throughput",
		Columns: columns(ScaleResult{}),
		Notes: []string{"wall time is the figure to compare across PRs: events/sec falls " +
			"whenever a change removes the cheapest events (elided spin samples), even as the run gets faster"},
	}

	log := sweepLog[ScaleResult]{sweep: "scalesweep", note: true, t: &t}
	for _, n := range cfg.Nodes {
		err := log.record(fmt.Sprintf("%d nodes", n), func() (ScaleResult, *analysis.Report, error) {
			return rn.runScaleCase(n, cfg.MsgBytes, cfg.Rounds)
		})
		if err != nil {
			return t, err
		}
	}
	// The host fields make the file a performance record, not a golden one.
	return t, log.write(rn.OutDir, artifact{
		header: [][2]string{
			{"traffic", `"all-to-all"`},
			{"msg_bytes", fmt.Sprint(cfg.MsgBytes)},
			{"rounds", fmt.Sprint(cfg.Rounds)},
		},
		listKey: "configs",
	})
}

// runScaleCase boots an n-node cluster with the reliability layer on (the
// retransmit timers are the cancel-churn stress the heap compaction
// exists for) and runs the all-to-all exchange.
func (rn *Run) runScaleCase(nodes, msgBytes, rounds int) (ScaleResult, *analysis.Report, error) {
	cl := rn.newCell(fmt.Sprintf("scalesweep %d nodes", nodes))
	eng := cl.eng

	// Each node exports one page per sender (tag = sender ID); importers
	// map exactly one page per peer, staying far inside the 2048-entry
	// outgoing page table even at 256 nodes.
	window := nodes * mem.PageSize
	memBytes := window + 64*mem.PageSize
	// Stragglers (in-sequence packets the every-4th-packet ack skips) are
	// acknowledged by default only by the sender's timeout-retransmit
	// round, so this workload's sparse per-pair traffic would pay a
	// redundant retransmission per message. A delayed ack well under the
	// RTO acks each step's packet promptly instead.
	relCfg := lanai.DefaultReliability()
	relCfg.AckDelay = 25 * sim.Microsecond
	c, err := cl.newCluster(vmmc.Options{
		Nodes: nodes, MemBytes: memBytes, Reliable: true, Reliability: &relCfg,
	})
	if err != nil {
		return ScaleResult{}, nil, err
	}

	var (
		exported  = newBarrier(eng, nodes)
		imported  = newBarrier(eng, nodes)
		step      = newBarrier(eng, nodes)
		finished  = newBarrier(eng, nodes)
		importSem = newSema(eng, 8)
		start     sim.Time
		elapsed   sim.Time
	)
	final := byte(rounds%250 + 1)
	for i := 0; i < nodes; i++ {
		cl.spawn(c, fmt.Sprintf("sweep:%d", i), func(p *sim.Proc) error {
			if i == 0 {
				markPhase(eng, "export")
			}
			proc, err := c.Nodes[i].NewProcess(p)
			if err != nil {
				return err
			}
			buf, err := proc.Malloc(window)
			if err != nil {
				return err
			}
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				off := mem.VirtAddr(j * mem.PageSize)
				if err := proc.Export(p, uint32(j+1), buf+off, mem.PageSize, nil, false); err != nil {
					return err
				}
			}
			exported.await(p)
			if i == 0 {
				markPhase(eng, "import")
			}

			importSem.acquire(p)
			dests := make([]vmmc.ProxyAddr, nodes)
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				dest, _, err := proc.Import(p, j, uint32(i+1))
				if err != nil {
					return err
				}
				dests[j] = dest
			}
			importSem.release()
			src, err := proc.Malloc(mem.PageSize)
			if err != nil {
				return err
			}
			payload := make([]byte, msgBytes)
			imported.await(p)
			if i == 0 {
				start = p.Now()
				markPhase(eng, "exchange")
			}

			// Ring-shifted schedule: in step s every node sends to
			// (i+s) mod n, so each node receives exactly one message per
			// step and no receiver ever sees an incast burst. The
			// per-step barrier bounds skew, the way MPI all-to-all
			// implementations pace a shifted exchange.
			for r := 1; r <= rounds; r++ {
				marker := byte(r%250 + 1)
				for k := range payload {
					payload[k] = marker
				}
				if err := proc.Write(src, payload); err != nil {
					return err
				}
				for s := 1; s < nodes; s++ {
					j := (i + s) % nodes
					seq, err := proc.SendMsg(p, src, dests[j], msgBytes, vmmc.SendOptions{})
					if err != nil {
						return err
					}
					// Local completion frees the source page for the
					// next step; delivery is confirmed by the flag scan
					// at the end.
					if err := proc.WaitSend(p, seq); err != nil {
						return err
					}
					step.await(p)
				}
			}

			if i == 0 {
				markPhase(eng, "drain")
			}
			// In-order delivery per pair: the final round's marker in a
			// slot means every earlier round landed there too. PollUntil
			// parks between deposits rather than spinning — at 256 nodes
			// the tail of retransmitted deliveries stretches over enough
			// virtual time that a 0.1 us spin loop would dominate the
			// whole simulation's event count.
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				flag := buf + mem.VirtAddr(j*mem.PageSize+msgBytes-1)
				proc.PollUntil(p, func() bool {
					b, err := proc.AS.ReadBytes(flag, 1)
					return err == nil && b[0] == final
				})
			}
			finished.await(p)
			if i == 0 {
				elapsed = p.Now() - start
			}
			return nil
		})
	}

	// The timed window is the simulation alone; drive finalizes after it.
	var (
		msBefore, msAfter runtime.MemStats
		wall              float64
	)
	err = cl.drive(func() error {
		runtime.GC()
		runtime.ReadMemStats(&msBefore)
		wallStart := time.Now()
		err := c.Start()
		wall = time.Since(wallStart).Seconds()
		runtime.ReadMemStats(&msAfter)
		return err
	})
	if err != nil {
		return ScaleResult{}, nil, err
	}
	// The fabric is fault-free, so a peer declared unreachable is a
	// link-layer bug, not a result.
	for _, n := range c.Nodes {
		if k := cl.count(fmt.Sprintf("lanai%d/rl_unreachable", n.Board.NIC.ID)); k > 0 {
			return ScaleResult{}, nil, cl.fail(fmt.Errorf("node %d declared a healthy peer unreachable %d times", n.ID, k))
		}
	}

	st := eng.SchedStats()
	msgs := nodes * (nodes - 1) * rounds
	payload := int64(msgs) * int64(msgBytes)
	r := ScaleResult{
		Nodes:          nodes,
		Messages:       msgs,
		PayloadBytes:   payload,
		VirtualElapsed: elapsed,
		Events:         st.Dispatched,
		SamplesElided:  st.Elided,
		WallSeconds:    wall,
		PeakEventHeap:  st.PeakHeapLen,
		Compactions:    st.Compactions,
		HeapSysMB:      float64(msAfter.HeapSys) / (1 << 20),
	}
	if elapsed > 0 {
		r.GoodputMBps = float64(payload) / elapsed.Seconds() / 1e6
	}
	if wall > 0 {
		r.EventsPerSec = float64(st.Dispatched) / wall
	}
	if st.Dispatched > 0 {
		r.AllocsPerEvent = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(st.Dispatched)
	}
	return r, cl.rep, nil
}
