package bench

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/vmmc"
)

var errBoom = errors.New("boom")

// sleeper is a workload that runs for d of virtual time and returns err.
func sleeper(d sim.Time, err error) func(*sim.Proc) error {
	return func(p *sim.Proc) error {
		p.Sleep(d)
		return err
	}
}

// TestCellBodyErrorNamesCell: a workload body that returns an error fails
// its cell with an error that wraps it and names the cell — no panic from
// a process goroutine — whichever form ran it, and the failed run
// publishes nothing: its Run's Report still answers for the run before it.
func TestCellBodyErrorNamesCell(t *testing.T) {
	rn := new(Run)
	if err := rn.newCell("good").run("w", sleeper(sim.Microsecond, nil)); err != nil {
		t.Fatal(err)
	}
	before := rn.Report()
	if before == nil {
		t.Fatal("a completed run left its Run no Report")
	}
	forms := map[string]func(cl *cell) error{
		"run": func(cl *cell) error { return cl.run("w", sleeper(sim.Microsecond, errBoom)) },
		"cluster": func(cl *cell) error {
			_, err := cl.cluster(vmmc.Options{Nodes: 2}, "w", func(p *sim.Proc, c *vmmc.Cluster) error {
				return errBoom
			})
			return err
		},
		"spawn+drive": func(cl *cell) error {
			c, err := vmmc.NewCluster(cl.eng, vmmc.Options{Nodes: 2})
			if err != nil {
				return err
			}
			cl.spawn(c, "w0", sleeper(2*sim.Microsecond, errors.New("the later failure")))
			cl.spawn(c, "w1", sleeper(sim.Microsecond, errBoom))
			return cl.drive(c.Start)
		},
		// The body gives up and strands a peer: the engine's deadlock
		// report is the symptom, the body's error the cause.
		"stranded peer": func(cl *cell) error {
			return cl.run("w", func(p *sim.Proc) error {
				never := sim.NewCond(cl.eng)
				cl.eng.Go("peer", func(pp *sim.Proc) { never.Wait(pp) })
				return errBoom
			})
		},
	}
	for form, run := range forms {
		cl := rn.newCell("the doomed cell")
		err := run(cl)
		if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "bench: the doomed cell: ") {
			t.Errorf("%s: err = %v, want boom wrapped in the cell's name", form, err)
		}
		if cl.rep != nil {
			t.Errorf("%s: a failed run carries a report", form)
		}
		if rn.Report() != before {
			t.Errorf("%s: a failed run replaced its Run's Report", form)
		}
	}
}

// TestCellReportIsItsOwn runs two different workloads back to back and
// then a failing one: each cell's report covers its own engine's run, and
// the failing cell inherits neither, nor does it touch its Run's.
func TestCellReportIsItsOwn(t *testing.T) {
	rn := new(Run)
	short, long := rn.newCell("short"), rn.newCell("long")
	if err := short.run("w", sleeper(3*sim.Microsecond, nil)); err != nil {
		t.Fatal(err)
	}
	if err := long.run("w", sleeper(8*sim.Microsecond, nil)); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*cell{short, long} {
		if cl.rep == nil || cl.rep.WindowNS != int64(cl.eng.Now()) {
			t.Errorf("%s: report = %+v, want one covering its own %v run", cl.name, cl.rep, cl.eng.Now())
		}
	}
	if short.rep.WindowNS != 3000 || long.rep.WindowNS != 8000 {
		t.Errorf("report windows = %d and %d ns, want 3000 and 8000", short.rep.WindowNS, long.rep.WindowNS)
	}
	if rn.Report() != long.rep {
		t.Error("the Run's Report is not the last completed run's report")
	}
	failing := rn.newCell("failing")
	if err := failing.run("w", sleeper(5*sim.Microsecond, errBoom)); err == nil {
		t.Fatal("failing cell succeeded")
	}
	if failing.rep != nil {
		t.Errorf("failing cell was handed a report covering %d ns", failing.rep.WindowNS)
	}
	if rn.Report() != long.rep {
		t.Error("a failed run replaced its Run's Report")
	}
}

// TestRunPairSurfacesCallbackError: the callback's error comes back from
// RunPair, not out of a process goroutine as a panic.
func TestRunPairSurfacesCallbackError(t *testing.T) {
	err := new(Run).RunPair(vmmc.Options{}, 4096, func(p *sim.Proc, pr *Pair) error {
		if _, err := pr.PingPongLatency(p, 4, 1); err != nil {
			return err
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("RunPair = %v, want the callback's error", err)
	}
}

// TestRunsShareNothing runs two experiments side by side, each on its own
// Run: each Run's report must be, as JSON, the report of the same
// experiment run alone, and its event fingerprint the same. The race detector watches the pair (CI runs this
// test under -race).
func TestRunsShareNothing(t *testing.T) {
	fig2 := func(rn *Run) error { _, err := rn.Fig2Latency(); return err }
	coll := func(rn *Run) error {
		_, err := rn.CollSweep(CollConfig{Nodes: []int{4}, Sizes: []int{64}, Iters: 1})
		return err
	}
	exps := []func(*Run) error{fig2, coll}
	alone := make([]string, len(exps))
	aloneFP := make([]string, len(exps))
	for i, run := range exps {
		alone[i], aloneFP[i] = analysisJSONFor(t, run)
	}
	runs := []*Run{new(Run), new(Run)}
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, run := range exps {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = run(runs[i]) }()
	}
	wg.Wait()
	for i, rn := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if rn.Report() == nil || analysisJSON(rn.Report(), "") != alone[i] {
			t.Errorf("experiment %d: the report run beside another differs from the one run alone", i)
		}
		if rn.Fingerprint() != aloneFP[i] {
			t.Errorf("experiment %d: fingerprint beside another %s, alone %s", i, rn.Fingerprint(), aloneFP[i])
		}
	}
}
