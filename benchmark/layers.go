package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// eventCounter counts the trace events the model emits once the measured
// section has begun.
type eventCounter struct {
	on bool
	n  int64
}

func (c *eventCounter) Consume(ev trace.Event) {
	if ev.Ph == trace.PhaseInstant && ev.Category == "phase" && ev.Name == "measure" {
		c.on = true
	}
	if c.on {
		c.n++
	}
}

// runTraced produces the per-layer metrics. It runs the workload three
// times with the batch size of an end-to-end run but half as many batches:
// untraced (the reference for host cost), untraced with every CPU given to
// the Go scheduler (what a vmmcbench user pays for not pinning GOMAXPROCS;
// a quarter of those batches), and traced — analyzer subscribed,
// benchmark-side spans on, layer probes on the warmed cluster afterwards.
// The returned section is the traced one.
func runTraced(w *workload, cfg runCfg, traceOut string) (*section, metrics, error) {
	cfg.seconds /= 2
	cfg.batches = (cfg.batches + 1) / 2
	cfg.setupReps, cfg.setupSpend = 1, 0
	plain, err := runUntraced(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	wide := cfg
	wide.seconds /= 4
	wide.batches = (cfg.batches + 3) / 4
	runtime.GOMAXPROCS(runtime.NumCPU())
	multi, err := runUntraced(w, wide)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, nil, err
	}

	rec := newRecorder()
	an := analysis.NewAnalyzer(analysis.Config{})
	cnt := &eventCounter{}
	m := metrics{}
	var s *section
	_, err = runInstance(w, &env{seed: cfg.seed, rec: rec}, []trace.Sink{an, cnt}, func(p *sim.Proc, in *instance) error {
		var err error
		if s, err = measure(p, in, cfg.batches, w.opsPerBatch(cfg), true); err != nil {
			return err
		}
		rep := an.Finalize(int64(p.Now()), s.snap1)
		in.eng.Trace().Unsubscribe(an)
		in.eng.Trace().Unsubscribe(cnt)

		ops := float64(s.ops)
		modelLayers(m, s, rep)
		m["sim.host_ns_per_event"] = plain.hostNSPerEvent()
		m["sim.peak_heap_len"] = float64(plain.sched.PeakHeapLen)
		m["sim.compactions"] = float64(plain.sched.Compactions)
		m["sim.maxprocs_penalty_ratio"] = multi.hostUSPerOp() / plain.hostUSPerOp()
		m["vmmc.boot_host_s"] = in.bootHost.Seconds()
		m["vmmc.import_host_s"] = (in.setupHost - in.bootHost).Seconds()
		m["trace.host_overhead_ratio"] = s.hostUSPerOp() / plain.hostUSPerOp()
		m["trace.events_per_op"] = float64(cnt.n) / ops
		m["trace.dropped"] = float64(rec.dropped + in.eng.Trace().Dropped())
		m["host.gc_cycles_per_kop"] = float64(plain.gcCycles) / float64(plain.ops) * 1e3
		m["host.gc_pause_ms"] = float64(plain.gcPauseNS) / 1e6
		if sends := append(spanDurations(rec.spans, "vmmc", "SendMsg"),
			spanDurations(rec.spans, "vmmc", "SendMsgSync")...); len(sends) > 0 {
			m["vmmc.send_call_virt_us_p50"] = median(sends).Micros()
		}
		if self, ok := selfVirtByLayer(rec.spans)["loadgen"]; ok {
			m["loadgen.self_virt_us_per_op"] = float64(self) / 1e3 / ops
		}

		simProbes(m)
		m["hostcpu.probe_poll_sample_ns"] = probePollSample(p, in.c)
		oneway, err := probeOneWay(p, in.c)
		if err != nil {
			return err
		}
		m["vmmc.probe_oneway_virt_us"] = oneway.Micros()
		return in.r.layer(p, m, s)
	})
	if err != nil {
		return nil, nil, err
	}
	if traceOut != "" {
		if err := rec.write(traceOut); err != nil {
			return nil, nil, err
		}
	}
	return s, m, nil
}

// modelLayers fills the metrics that come from the model's own accounting
// over the measured section: busy and wait times from the analyzer's
// "measure" phase, counts from Cluster.Stats and the metrics registry.
func modelLayers(m metrics, s *section, rep *analysis.Report) {
	ops := float64(s.ops)
	phase := func(class string) (busy float64, waitNS int64) {
		for _, rs := range rep.Resources {
			if rs.Class != class {
				continue
			}
			for _, pr := range rs.PerPhase {
				if pr.Phase == "measure" {
					return pr.BusyFrac, pr.WaitNS
				}
			}
		}
		return 0, 0
	}
	m["bus.pci_busy_frac"], _ = phase("bus-pci")
	var wait int64
	m["bus.host_dma_busy_frac"], wait = phase("host-dma")
	m["bus.host_dma_wait_us_per_op"] = float64(wait) / 1e3 / ops
	m["lanai.send_dma_busy_frac"], _ = phase("send-dma")
	m["lanai.recv_dma_busy_frac"], _ = phase("recv-dma")
	m["myrinet.link_busy_frac"], wait = phase("link-tx")
	m["myrinet.link_wait_us_per_op"] = float64(wait) / 1e3 / ops
	m["vmmc.lcp_busy_frac"], _ = phase("lcp")
	for _, o := range rep.Occupancies {
		switch o.Class {
		case "sram":
			m["lanai.sram_peak_frac"] = o.PeakFrac
		case "rl-window":
			m["lanai.rl_window_peak_frac"] = o.PeakFrac
		}
	}

	// Per-node counters, summed over the cluster, as deltas over the section.
	sum := func(field func(vmmc.NodeStats) int64) float64 {
		var d int64
		for i := range s.stats1.Nodes {
			d += field(s.stats1.Nodes[i]) - field(s.stats0.Nodes[i])
		}
		return float64(d)
	}
	m["bus.dma_transfers_per_op"] = sum(func(n vmmc.NodeStats) int64 { return n.HostDMATransfers }) / ops
	m["lanai.interrupts_per_op"] = sum(func(n vmmc.NodeStats) int64 { return n.Interrupts }) / ops
	m["lanai.retx_per_kop"] = sum(func(n vmmc.NodeStats) int64 { return n.ReliabilityRetx }) / ops * 1e3
	m["lanai.rl_stalls_per_kop"] = sum(func(n vmmc.NodeStats) int64 { return n.ReliabilityStalls }) / ops * 1e3
	m["myrinet.packets_per_op"] = sum(func(n vmmc.NodeStats) int64 { return n.LCP.PacketsOut }) / ops
	m["myrinet.packets_dropped"] = float64(s.stats1.PacketsDropped - s.stats0.PacketsDropped)
	m["vmmc.lcp_main_loops_per_op"] = sum(func(n vmmc.NodeStats) int64 { return n.LCP.MainLoopIterations }) / ops
	m["vmmc.sends_short_per_op"] = sum(func(n vmmc.NodeStats) int64 { return n.LCP.SendsShort }) / ops
	m["vmmc.sends_long_per_op"] = sum(func(n vmmc.NodeStats) int64 { return n.LCP.SendsLong }) / ops
	m["vmmc.tlb_miss_stalls_per_kop"] = sum(func(n vmmc.NodeStats) int64 { return n.LCP.TLBMissStalls }) / ops * 1e3
	m["vmmc.notifications_per_op"] = sum(func(n vmmc.NodeStats) int64 { return n.Notifications }) / ops

	suffix := func(sfx string) float64 {
		var d int64
		for _, c := range s.snap1.Counters {
			if strings.HasSuffix(c.Name, sfx) {
				before, _ := s.snap0.Counter(c.Name)
				d += c.Value - before
			}
		}
		return float64(d)
	}
	if hits, misses := suffix("/tlb_hits"), suffix("/tlb_misses"); hits+misses > 0 {
		m["vmmc.tlb_miss_frac"] = misses / (hits + misses)
	}
}

// simProbes times the engine's three primitive costs in isolation on
// fresh engines: dispatching a callback event, a process sleep (event plus
// the park/resume goroutine handoff), and arming then cancelling a timer
// (with the lazy heap compaction that implies). Each is the best of five
// repetitions, in host nanoseconds per primitive.
func simProbes(m metrics) {
	const n, reps = 20000, 5
	best := func(run func()) float64 {
		var min time.Duration
		for r := 0; r < reps; r++ {
			t := time.Now()
			run()
			if d := time.Since(t); r == 0 || d < min {
				min = d
			}
		}
		return float64(min.Nanoseconds()) / n
	}
	m["sim.probe_dispatch_ns"] = best(func() {
		eng := sim.NewEngine()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(sim.Nanosecond, tick)
			}
		}
		eng.After(sim.Nanosecond, tick)
		_ = eng.Run() // no process exists, so Run has no deadlock to report
	})
	m["sim.probe_switch_ns"] = best(func() {
		eng := sim.NewEngine()
		eng.Go("probe:sleep", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
		_ = eng.Run() // the only process runs to completion
	})
	m["sim.probe_timer_cancel_ns"] = best(func() {
		eng := sim.NewEngine()
		for i := 0; i < n; i++ {
			eng.After(sim.Millisecond, func() {}).Cancel()
		}
	})
}

// probePollSample times one false sample of hostcpu's spin wait on the
// warmed cluster: host nanoseconds per sample.
func probePollSample(p *sim.Proc, c *vmmc.Cluster) float64 {
	const n = 200000
	left := n
	t := time.Now()
	c.Nodes[0].CPU.SpinWait(p, func() bool { left--; return left <= 0 })
	return float64(time.Since(t).Nanoseconds()) / n
}

// Probe export tags, clear of every workload's.
const (
	tagProbeA, tagProbeB = 0x7E570001, 0x7E570002
)

// probeOneWay measures the VMMC one-way latency of a 4-byte message
// between nodes 0 and 1 of the warmed cluster, with fresh processes:
// median of 16 after one warm exchange.
func probeOneWay(p *sim.Proc, c *vmmc.Cluster) (sim.Time, error) {
	type end struct {
		proc     *vmmc.Process
		buf, src mem.VirtAddr
		dest     vmmc.ProxyAddr
	}
	var ends [2]end
	for i := range ends {
		e := &ends[i]
		var err error
		if e.proc, err = c.Nodes[i].NewProcess(p); err != nil {
			return 0, err
		}
		if e.buf, err = e.proc.Malloc(mem.PageSize); err != nil {
			return 0, err
		}
		if e.src, err = e.proc.Malloc(mem.PageSize); err != nil {
			return 0, err
		}
		if err = e.proc.Export(p, tagProbeA+uint32(i), e.buf, mem.PageSize, nil, false); err != nil {
			return 0, err
		}
	}
	for i := range ends {
		var err error
		if ends[i].dest, _, err = ends[i].proc.Import(p, 1-i, tagProbeA+uint32(1-i)); err != nil {
			return 0, err
		}
	}
	var samples []sim.Time
	for i := 1; i <= 17; i++ {
		for dir := range ends {
			from, to := &ends[dir], &ends[1-dir]
			if err := from.proc.Write(from.src, []byte{0, 0, 0, marker(i)}); err != nil {
				return 0, err
			}
			t0 := p.Now()
			if err := from.proc.SendMsgSync(p, from.src, from.dest, pingBytes, vmmc.SendOptions{}); err != nil {
				return 0, fmt.Errorf("one-way probe: %w", err)
			}
			to.proc.SpinByte(p, to.buf+pingBytes-1, marker(i))
			if i > 1 && dir == 0 {
				samples = append(samples, p.Now()-t0)
			}
		}
	}
	return median(samples), nil
}
