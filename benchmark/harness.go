package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// runCfg sizes one run. The op count is a pure function of (workload,
// seconds, batches): it never depends on how fast the host happens to be,
// so virtual metrics repeat exactly for a seed.
type runCfg struct {
	seed       uint64
	seconds    float64       // host seconds of measured work the op count is sized for
	batches    int           // equal batches; host time is the minimum over them
	setupReps  int           // minimum number of fresh set-ups timed
	setupSpend time.Duration // keep setting up until this much host time is spent
}

// maxSetupReps caps the repeated set-ups. A finished simulation cannot be
// torn down — its daemon processes stay parked on their goroutines and keep
// the whole cluster reachable — so every extra set-up is heap that stays
// allocated for the rest of the run.
const maxSetupReps = 64

// production is the configuration BENCHMARK.json's command runs.
func production(seed uint64, seconds float64) runCfg {
	return runCfg{seed: seed, seconds: seconds, batches: 32, setupReps: 7, setupSpend: time.Second / 2}
}

// workload describes one benchmark workload: how to build its cluster and
// a runner on it. opsPerSec was measured once on the reference 2-core VM
// at GOMAXPROCS=1 and then frozen; it only sizes the op count.
type workload struct {
	name      string
	opsPerSec float64
	unit      int // ops come in multiples of this per batch
	opts      func() vmmc.Options
	// build runs in the driver process on the booted cluster: processes,
	// export/import or dial, warm-up. It must leave nothing in flight.
	build func(p *sim.Proc, c *vmmc.Cluster, e *env) (runner, error)
}

// runner executes a workload's operations on one warmed cluster.
type runner interface {
	// batch runs (or, for an open loop, offers) n operations, records
	// their outcomes in the env and verifies their outputs.
	batch(p *sim.Proc, n int) error
	// finish waits for everything in flight, stops helper processes and
	// runs the end-of-run output checks.
	finish(p *sim.Proc) error
	// layer adds the workload's own per-layer metrics and probes; it runs
	// in the driver process after the traced section.
	layer(p *sim.Proc, m metrics, s *section) error
}

// env is what a runner records into.
type env struct {
	seed uint64
	rec  *recorder // nil when untraced

	attempted int64
	ok        int64
	okBytes   int64      // verified payload bytes of OK ops
	lat       []sim.Time // one virtual latency sample per OK op (or per step)
}

// opsPerBatch turns the run length into a fixed per-batch op count.
func (w *workload) opsPerBatch(cfg runCfg) int {
	units := int(math.Round(w.opsPerSec * cfg.seconds / float64(cfg.batches) / float64(w.unit)))
	if units < 1 {
		units = 1
	}
	return units * w.unit
}

// instance is one fresh cluster with a warmed runner on it.
type instance struct {
	eng *sim.Engine
	c   *vmmc.Cluster
	e   *env
	r   runner

	bootHost  time.Duration // engine + NewCluster + boot/mapping
	setupHost time.Duration // bootHost + build (processes, imports, warm-up)
}

// runInstance builds a fresh engine and cluster, boots it, runs the
// workload's build in the driver process and then body (nil for a set-up
// that is only timed). It returns once the simulation has drained.
func runInstance(w *workload, e *env, sinks []trace.Sink, body func(p *sim.Proc, in *instance) error) (*instance, error) {
	t0 := time.Now()
	eng := sim.NewEngine()
	for _, s := range sinks {
		eng.Trace().Subscribe(s)
	}
	c, err := vmmc.NewCluster(eng, w.opts())
	if err != nil {
		return nil, err
	}
	in := &instance{eng: eng, c: c, e: e}
	var runErr error
	c.Go("bench:"+w.name, func(p *sim.Proc) {
		in.bootHost = time.Since(t0)
		if in.r, runErr = w.build(p, c, e); runErr != nil {
			return
		}
		in.setupHost = time.Since(t0)
		if body != nil {
			runErr = body(p, in)
		}
	})
	if err := c.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	return in, nil
}

// section is everything recorded over one measured section.
type section struct {
	n         int // ops per batch
	ops       int64
	ok        int64
	okBytes   int64
	lat       []sim.Time // sorted
	batchHost []time.Duration
	batchEv   []uint64 // events dispatched during each batch
	virt      sim.Time
	events    uint64
	mallocs   uint64
	allocated uint64
	gcCycles  uint32
	gcPauseNS uint64
	liveHeap  uint64
	sched     sim.SchedStats
	setup     time.Duration

	// Traced runs only: counter snapshots bracketing the section.
	stats0, stats1 vmmc.ClusterStats
	snap0, snap1   trace.Snapshot
}

// measure runs batches×n operations on the instance from inside its driver
// process. Host time is read around each batch; counts are deltas over the
// whole section. The cluster stays reachable through in for the live-heap
// reading.
func measure(p *sim.Proc, in *instance, batches, n int, traced bool) (*section, error) {
	s := &section{n: n, batchHost: make([]time.Duration, 0, batches)}
	e := in.e
	e.lat = make([]sim.Time, 0, batches*n)
	if traced {
		s.stats0, s.snap0 = in.c.Stats(), in.eng.MetricsSnapshot()
		in.eng.TraceInstant("bench", "phase", "measure")
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ev0, v0 := in.eng.SchedStats().Dispatched, p.Now()
	for b := 0; b < batches; b++ {
		ev, t := in.eng.SchedStats().Dispatched, time.Now()
		if err := in.r.batch(p, n); err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		s.batchHost = append(s.batchHost, time.Since(t))
		s.batchEv = append(s.batchEv, in.eng.SchedStats().Dispatched-ev)
	}
	if err := in.r.finish(p); err != nil {
		return nil, err
	}
	s.virt = p.Now() - v0
	s.sched = in.eng.SchedStats()
	s.events = s.sched.Dispatched - ev0
	runtime.ReadMemStats(&ms1)
	s.mallocs = ms1.Mallocs - ms0.Mallocs
	s.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	s.gcCycles = ms1.NumGC - ms0.NumGC
	s.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	s.liveHeap = ms1.HeapAlloc
	if traced {
		s.stats1, s.snap1 = in.c.Stats(), in.eng.MetricsSnapshot()
	}
	s.ops, s.ok, s.okBytes = e.attempted, e.ok, e.okBytes
	s.lat = e.lat
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	return s, nil
}

// hostNSPerEvent is the host time per dispatched event of the least
// disturbed batch. Neighbour noise on a shared VM only ever adds time, so
// the minimum over batches estimates the undisturbed cost (README, "Noise
// method"). Batches of an open-loop workload hold equal op counts but not
// equal work, so they are compared per event: the minimum then picks the
// quietest batch, not the one that happened to have the least to do.
func (s *section) hostNSPerEvent() float64 {
	best := math.Inf(1)
	for b, d := range s.batchHost {
		if v := float64(d.Nanoseconds()) / float64(s.batchEv[b]); v < best {
			best = v
		}
	}
	return best
}

// hostUSPerOp is sim_events_per_op x the least disturbed batch's cost per
// event; for batches of equal work, exactly the fastest batch's time per op.
func (s *section) hostUSPerOp() float64 {
	return s.hostNSPerEvent() / 1e3 * float64(s.events) / float64(s.ops)
}

// percentile is the nearest-rank q-quantile of sorted samples and the
// number of samples strictly beyond that rank.
func percentile(sorted []sim.Time, q float64) (v sim.Time, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

// endToEnd derives the twelve end-to-end metrics from an untraced section.
func (s *section) endToEnd() metrics {
	ops := float64(s.ops)
	p50, _ := percentile(s.lat, 0.50)
	p99, _ := percentile(s.lat, 0.99)
	vs := s.virt.Seconds()
	return metrics{
		"setup_s":              s.setup.Seconds(),
		"host_us_per_op":       s.hostUSPerOp(),
		"host_allocs_per_op":   float64(s.mallocs) / ops,
		"host_alloc_kb_per_op": float64(s.allocated) / 1024 / ops,
		"live_heap_mb":         float64(s.liveHeap) / (1 << 20),
		"sim_events_per_op":    float64(s.events) / ops,
		"virt_latency_p50_us":  p50.Micros(),
		"virt_latency_p99_us":  p99.Micros(),
		"virt_goodput_mb_s":    float64(s.okBytes) / vs / 1e6,
		"virt_ok_ops_per_s":    float64(s.ok) / vs,
		"ok_frac":              float64(s.ok) / ops,
		"ops":                  ops,
	}
}

// runUntraced is the end-to-end run: no analyzer, no trace ring, no
// recorder. Fresh set-ups are timed before and after the measured cluster
// (itself one of them), half of cfg's repetitions on either side, so that a
// noisy phase has to outlast the whole run to touch their minimum.
func runUntraced(w *workload, cfg runCfg) (*section, error) {
	var best time.Duration
	note := func(d time.Duration) {
		if best == 0 || d < best {
			best = d
		}
	}
	timeSetups := func(reps int, spend time.Duration) error {
		var spent time.Duration
		for rep := 0; rep < reps || (spent < spend && rep < maxSetupReps/2); rep++ {
			runtime.GC()
			in, err := runInstance(w, &env{seed: cfg.seed}, nil, nil)
			if err != nil {
				return err
			}
			note(in.setupHost)
			spent += in.setupHost
		}
		return nil
	}
	before := (cfg.setupReps - 1) / 2
	if err := timeSetups(before, cfg.setupSpend/2); err != nil {
		return nil, err
	}

	// The earlier clusters are still on the heap (see maxSetupReps): the
	// measured cluster's live heap is what it adds to them.
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	var s *section
	in, err := runInstance(w, &env{seed: cfg.seed}, nil, func(p *sim.Proc, in *instance) error {
		var err error
		s, err = measure(p, in, cfg.batches, w.opsPerBatch(cfg), false)
		return err
	})
	if err != nil {
		return nil, err
	}
	note(in.setupHost)
	s.liveHeap -= base.HeapAlloc

	if err := timeSetups(cfg.setupReps-1-before, cfg.setupSpend/2); err != nil {
		return nil, err
	}
	s.setup = best
	return s, nil
}
