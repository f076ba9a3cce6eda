// Command vmmcbench regenerates the figures and tables of the paper's
// evaluation (§5-§7) on the simulated platform, plus the repo's
// extension sweeps.
//
// Usage:
//
//	vmmcbench                         # run everything
//	vmmcbench -experiment fig3        # one experiment
//	vmmcbench -deterministic -out .   # the RESULTS.txt set (no scalesweep)
//	vmmcbench -list                   # list experiment ids
//	vmmcbench -experiment headline -trace t.json -metrics m.json
//
// Experiments live in the registry in registry.go; `-list` prints the
// ids. Deterministic experiments print only virtual-time-derived
// quantities, so their output is byte-identical across runs and
// machines; `-deterministic` runs exactly that set in registry order,
// which is how RESULTS.txt is regenerated (a golden test pins the
// checked-in file against the registry). scalesweep reports wall-clock
// events/sec and is the one exclusion.
//
// Sweeps read their own flags: scalesweep takes -scale-nodes, healsweep
// -heal-outages, collsweep -coll-nodes, tenantsweep -tenant-calls and
// -tenant-rates, servesweep -serve-rates, -serve-shards and
// -serve-requests, replicasweep -replica-r, -replica-rates and
// -replica-requests. With -out DIR, every sweep that runs writes its
// artifact as DIR/BENCH_<sweep>.json (BENCH_heal.json, ...). Every sweep
// artifact but scalesweep's wall-clock record is byte-identical across
// runs.
//
// Each experiment's output ends with its event fingerprint: its cells,
// their trace events, and a digest of every event in order, which
// RESULTS.txt pins for the deterministic set.
//
// Experiments run on a bench.Run each, the deterministic ones at once.
// With -trace, the last experiment records events over virtual time, and
// its last run is written as a Chrome trace_event JSON file (open in
// chrome://tracing or Perfetto); -metrics writes that run's final metrics
// snapshot as JSON. Either flag also prints a short metrics summary after
// each experiment. Traces carry only virtual timestamps, so artifacts are
// byte-identical across runs. See docs/OBSERVABILITY.md.
//
// Every experiment additionally streams its trace events through the
// bottleneck analyzer (internal/analysis); each sweep prints the
// analyzer's one-line verdict and embeds the full report in its JSON
// artifact. -analyze prints the ranked top-k resource table after each
// experiment, and -analyze-out writes the last run's report JSON.
// See docs/ANALYSIS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
)

func main() {
	// The engine runs exactly one goroutine at a time; extra Ps only turn
	// its channel handoffs into cross-thread wake-ups, which makes host
	// time slower and bimodal on a shared VM. See benchmark/README.md,
	// "Noise method".
	runtime.GOMAXPROCS(1)

	var (
		id       = flag.String("experiment", "", "experiment id to run (default: all)")
		detOnly  = flag.Bool("deterministic", false, "run only experiments with byte-identical output (the RESULTS.txt set)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		tracePth = flag.String("trace", "", "write a Chrome trace_event JSON artifact here")
		metrPth  = flag.String("metrics", "", "write a metrics snapshot JSON artifact here")
		traceCap = flag.Int("trace-capacity", 0, "trace ring buffer size in events (0 = default)")
		analyze  = flag.Bool("analyze", false, "print the full bottleneck analysis table after each experiment")
		analyOut = flag.String("analyze-out", "", "write the last run's bottleneck analysis report JSON here")
		outDir   = flag.String("out", "", "write each sweep's BENCH_<sweep>.json artifact into this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			mark := " "
			if e.deterministic {
				mark = "*"
			}
			fmt.Printf("%s %-12s %s\n", mark, e.id, e.what)
		}
		fmt.Println("\n* = deterministic output, pinned in RESULTS.txt")
		return
	}
	ran, err := runExperiments(os.Stdout, *id, *detOnly, *analyze, bench.Observability{
		TracePath:     *tracePth,
		MetricsPath:   *metrPth,
		TraceCapacity: *traceCap,
		AnalysisPath:  *analyOut,
		OutDir:        *outDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmmcbench: %v\n", err)
		os.Exit(1)
	}
	if !ran {
		why := "unknown experiment %q (try -list)"
		for _, e := range experiments {
			if e.id == *id {
				why = "experiment %q is not in the -deterministic set (try -list)"
			}
		}
		fmt.Fprintf(os.Stderr, "vmmcbench: "+why+"\n", *id)
		os.Exit(2)
	}
}
