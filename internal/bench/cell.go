package bench

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/baselines/testbed"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// cell is one run of one experiment configuration, and the only place the
// package's run lifecycle is written down: a fresh observed engine, the
// model built on it, the workload process, and — once the engine has
// drained — the run's metrics snapshot and bottleneck report, also handed
// to its Run. Every figure, table and sweep cell runs through one, so a
// report only reaches the code holding its cell, or the cell's Run.
//
// Workload bodies return an error instead of panicking; the process names
// they run under show up in deadlock reports and Engine.Parked.
type cell struct {
	name string // identifies the run in errors
	rn   *Run   // its settings, and where a completed run is recorded
	eng  *sim.Engine
	an   *analysis.Analyzer
	rep  *analysis.Report // this run's report; nil unless the run completed
	// snap is the metrics snapshot the report was built from, taken when
	// the engine drained: where every count of the run is read.
	snap trace.Snapshot
	err  error // the first error a workload process returned
}

// newCell makes the cell's engine. The model is built afterwards, so a
// fault.Plan can be created on the engine before the cluster exists.
func (rn *Run) newCell(name string) *cell {
	eng, an := rn.observedEngine()
	return &cell{name: name, rn: rn, eng: eng, an: an}
}

// cluster is the common whole run: build a cluster from opts, boot it, run
// body as the workload process proc, finalize. The cluster is returned for
// state read after the run; counts come from the cell's snapshot.
func (cl *cell) cluster(opts vmmc.Options, proc string, body func(p *sim.Proc, c *vmmc.Cluster) error) (*vmmc.Cluster, error) {
	c, err := cl.newCluster(opts)
	if err != nil {
		return nil, err
	}
	cl.spawn(c, proc, func(p *sim.Proc) error { return body(p, c) })
	return c, cl.drive(c.Start)
}

// newCluster builds a cluster on the cell's engine. Cells that must touch
// it before it boots, or want several workload processes, follow it with
// spawn and drive(c.Start) themselves.
func (cl *cell) newCluster(opts vmmc.Options) (*vmmc.Cluster, error) {
	c, err := vmmc.NewCluster(cl.eng, opts)
	if err != nil {
		return nil, cl.fail(err)
	}
	cl.rn.verifyFabric(c.Net)
	return c, nil
}

// testbed is newCluster for the baselines' two-node rig.
func (cl *cell) testbed() (*testbed.Rig, error) {
	r, err := testbed.New(cl.eng, hw.Default())
	if err != nil {
		return nil, cl.fail(err)
	}
	cl.rn.verifyFabric(r.Net)
	return r, nil
}

// spawn adds a workload process that starts once c has booted.
func (cl *cell) spawn(c *vmmc.Cluster, proc string, body func(p *sim.Proc) error) {
	c.Go(proc, func(p *sim.Proc) { cl.done(body(p)) })
}

// run is the bare-engine form, for models that are not a vmmc.Cluster:
// body is the workload process and the engine runs until it drains.
func (cl *cell) run(proc string, body func(p *sim.Proc) error) error {
	cl.eng.Go(proc, func(p *sim.Proc) { cl.done(body(p)) })
	return cl.drive(cl.eng.Run)
}

// done keeps the first error a workload process returns.
func (cl *cell) done(err error) {
	if cl.err == nil {
		cl.err = err
	}
}

// drive runs the simulation and, only if it and every workload process
// succeeded, finalizes the run and records it in the Run. A workload's
// error wins over the engine's: a process that gives up early strands its
// peers, and the deadlock the engine then reports is only the symptom.
func (cl *cell) drive(run func() error) error {
	err := run()
	if cl.err != nil {
		err = cl.err
	}
	if err != nil {
		return cl.fail(err)
	}
	cl.snap = cl.eng.MetricsSnapshot()
	cl.rep = cl.an.Finalize(cl.snap.NowNS, cl.snap)
	cl.eng.Trace().Unsubscribe(cl.an)
	cl.rn.rep, cl.rn.snap = cl.rep, cl.snap
	if cl.rn.TracePath != "" {
		cl.rn.events, cl.rn.dropped = cl.eng.Trace().Events(), cl.eng.Trace().Dropped()
	}
	return nil
}

// count reads one counter of the finished run from its snapshot; a name
// nothing registered reads zero.
func (cl *cell) count(name string) int64 {
	v, _ := cl.snap.Counter(name)
	return v
}

// fail names the cell in an error from its run.
func (cl *cell) fail(err error) error { return fmt.Errorf("bench: %s: %w", cl.name, err) }
