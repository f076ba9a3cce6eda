package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/sim"
)

// Per-experiment flags. Each sweep owns the flags carrying its prefix;
// every other experiment ignores them.
var (
	scaleNodes  = flag.String("scale-nodes", "", "scalesweep cluster sizes, comma-separated (default 16,64,256)")
	scaleOut    = flag.String("scale-out", "", "scalesweep: write the BENCH_scale.json artifact here")
	healOutages = flag.String("heal-outages", "", "healsweep link-outage durations in microseconds, comma-separated (default 2000,6000,12000)")
	healOut     = flag.String("heal-out", "", "healsweep: write the BENCH_heal.json artifact here")
	collNodes   = flag.String("coll-nodes", "", "collsweep communicator sizes, comma-separated (default 4,8,16)")
	collOut     = flag.String("coll-out", "", "collsweep: write the BENCH_coll.json artifact here")
	tenantCalls = flag.Int("tenant-calls", 0, "tenantsweep victim vRPC calls per cell (0 = default 32)")
	tenantRates = flag.String("tenant-rates", "", "tenantsweep qos=on aggressor budgets in bytes/sec, comma-separated (default 5e6,10e6,20e6)")
	tenantOut   = flag.String("tenant-out", "", "tenantsweep: write the BENCH_tenant.json artifact here")
	serveRates  = flag.String("serve-rates", "", "servesweep total offered loads in req/s, comma-separated (default 15000,30000,60000)")
	serveShards = flag.String("serve-shards", "", "servesweep shard counts, comma-separated (default 2)")
	serveReqs   = flag.Int("serve-requests", 0, "servesweep offered requests per cell (0 = default 240)")
	serveOut    = flag.String("serve-out", "", "servesweep: write the BENCH_serve.json artifact here")
	replicaR    = flag.String("replica-r", "", "replicasweep replication factors, comma-separated (default 1,2,3)")
	replicaRate = flag.String("replica-rates", "", "replicasweep total offered loads in req/s, comma-separated (default 30000,70000)")
	replicaReqs = flag.Int("replica-requests", 0, "replicasweep offered requests per cell (0 = default 240)")
	replicaOut  = flag.String("replica-out", "", "replicasweep: write the BENCH_replica.json artifact here")
)

// experiment is one registry entry. Deterministic experiments print only
// virtual-time-derived quantities, so their output is byte-identical
// across runs and machines; `-deterministic` selects exactly that set,
// RESULTS.txt is its captured output, and the golden test pins the two
// against each other. scalesweep reports wall-clock events/sec and is
// the one exclusion.
type experiment struct {
	id, what      string
	deterministic bool
	run           func(w io.Writer) error
}

// experiments is the registry, in RESULTS.txt rendering order.
var experiments = []experiment{
	{"headline", "abstract: 9.8 us latency, 80.4 MB/s bandwidth", true,
		tableExp(bench.Headline)},
	{"fig1", "Figure 1: host<->LANai DMA bandwidth vs block size", true,
		seriesExp(bench.Fig1HostDMA)},
	{"fig2", "Figure 2: one-way latency for short messages", true,
		seriesExp(oneSeries(bench.Fig2Latency))},
	{"fig3", "Figure 3: bandwidth vs message size (one-way, bidirectional)", true,
		seriesExp(bench.Fig3Bandwidth)},
	{"fig4", "Figure 4: synchronous/asynchronous send overhead", true,
		seriesExp(bench.Fig4SendOverhead)},
	{"tabhw", "Section 5.2: hardware cost microprobes", true,
		tableExp(bench.TableHardwareCosts)},
	{"tabvrpc", "Section 5.4: vRPC on Myrinet, SHRIMP, and kernel UDP", true,
		tableExp(bench.TableVRPC)},
	{"tabshrimp", "Section 6: SHRIMP vs Myrinet design tradeoffs", true,
		tableExp(bench.TableShrimpComparison)},
	{"tabrelated", "Section 7: Myrinet API, FM, PM, AM comparison", true,
		tableExp(bench.TableRelatedWork)},
	{"extensions", "follow-on features: redirection, reliability, zero-copy RPC", true,
		tableExp(bench.ExtensionsTable)},
	{"ablations", "design-choice ablations (pipelining, tight loop, threshold, TLB, senders)", true,
		runAblations},
	{"faultsweep", "robustness: goodput vs injected wire error rate, reliability off/on", true,
		tableExp(bench.FaultSweep)},
	{"scalesweep", "scaling: all-to-all goodput and simulator events/sec, 16-256 nodes", false,
		runScaleSweep},
	{"healsweep", "self-healing: goodput vs link/switch outage on a redundant fabric", true,
		runHealSweep},
	{"collsweep", "collectives: all-reduce tree vs ring crossover, heal interop", true,
		runCollSweep},
	{"tenantsweep", "multi-tenancy: victim vRPC latency vs bulk neighbor, QoS off/on, crash", true,
		runTenantSweep},
	{"servesweep", "serving tier: open-loop load vs tail latency, admission off/on, hot shard, outage", true,
		runServeSweep},
	{"replicasweep", "replication: R-way shards at equal capacity, load-aware routing, replica kill", true,
		runReplicaSweep},
}

// emit renders an experiment's table, or passes its error through.
func emit(w io.Writer, t bench.Table, err error) error {
	if err != nil {
		return err
	}
	writeTable(w, t)
	return nil
}

// tableExp adapts a table-producing benchmark to a registry run func.
func tableExp(f func() (bench.Table, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		t, err := f()
		return emit(w, t, err)
	}
}

// seriesExp adapts a series-producing benchmark to a registry run func.
func seriesExp(f func() ([]bench.Series, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		ss, err := f()
		if err != nil {
			return err
		}
		writeSeries(w, ss...)
		return nil
	}
}

// oneSeries lifts a single-series benchmark into seriesExp's shape.
func oneSeries(f func() (bench.Series, error)) func() ([]bench.Series, error) {
	return func() ([]bench.Series, error) {
		s, err := f()
		return []bench.Series{s}, err
	}
}

func runAblations(w io.Writer) error {
	for _, f := range []func() (bench.Table, error){
		bench.AblationPipeline,
		bench.AblationTightLoop,
		bench.AblationThreshold,
		bench.AblationTLB,
		bench.AblationSenders,
		bench.AblationReliability,
	} {
		t, err := f()
		if err != nil {
			return err
		}
		writeTable(w, t)
	}
	return nil
}

func runScaleSweep(w io.Writer) error {
	nodes, err := parseIntList(*scaleNodes, "-scale-nodes", 2)
	if err != nil {
		return err
	}
	t, err := bench.ScaleSweep(bench.ScaleConfig{Nodes: nodes, Out: *scaleOut})
	return emit(w, t, err)
}

func runHealSweep(w io.Writer) error {
	outages, err := parseHealOutages(*healOutages)
	if err != nil {
		return err
	}
	t, err := bench.HealSweep(bench.HealConfigSweep{Outages: outages, Out: *healOut})
	return emit(w, t, err)
}

func runCollSweep(w io.Writer) error {
	nodes, err := parseIntList(*collNodes, "-coll-nodes", 2)
	if err != nil {
		return err
	}
	t, err := bench.CollSweep(bench.CollConfig{Nodes: nodes, Out: *collOut})
	return emit(w, t, err)
}

func runTenantSweep(w io.Writer) error {
	rates, err := parseFloatList(*tenantRates, "-tenant-rates")
	if err != nil {
		return err
	}
	t, err := bench.TenantSweep(bench.TenantConfig{Calls: *tenantCalls, Rates: rates, Out: *tenantOut})
	return emit(w, t, err)
}

func runServeSweep(w io.Writer) error {
	rates, err := parseFloatList(*serveRates, "-serve-rates")
	if err != nil {
		return err
	}
	shards, err := parseIntList(*serveShards, "-serve-shards", 1)
	if err != nil {
		return err
	}
	t, err := bench.ServeSweep(bench.ServeConfig{
		Rates: rates, Shards: shards, Requests: *serveReqs, Out: *serveOut,
	})
	return emit(w, t, err)
}

func runReplicaSweep(w io.Writer) error {
	rs, err := parseIntList(*replicaR, "-replica-r", 1)
	if err != nil {
		return err
	}
	rates, err := parseFloatList(*replicaRate, "-replica-rates")
	if err != nil {
		return err
	}
	t, err := bench.ReplicaSweep(bench.ReplicaConfig{
		Rs: rs, Rates: rates, Requests: *replicaReqs, Out: *replicaOut,
	})
	return emit(w, t, err)
}

func parseIntList(s, flagName string, min int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var vals []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad %s entry %q", flagName, part)
		}
		vals = append(vals, n)
	}
	return vals, nil
}

func parseFloatList(s, flagName string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var vals []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, part)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func parseHealOutages(s string) ([]sim.Time, error) {
	us, err := parseIntList(s, "-heal-outages", 1)
	if err != nil {
		return nil, err
	}
	outs := make([]sim.Time, len(us))
	for i, u := range us {
		outs[i] = sim.Time(u) * sim.Microsecond
	}
	return outs, nil
}

func writeSeries(w io.Writer, ss ...bench.Series) {
	for _, s := range ss {
		fmt.Fprintln(w, s.Format())
	}
}

func writeTable(w io.Writer, t bench.Table) { fmt.Fprintln(w, t.Format()) }

// runExperiments renders every experiment matching the filter to w, in
// registry order. It is the single dispatch path shared by main and the
// RESULTS.txt golden test. observing additionally prints the metrics
// summary bench collects when trace/metrics artifacts are enabled;
// analyzing prints the full bottleneck analysis table after each
// experiment (the table-driven -analyze report; sweeps carry their
// per-configuration verdicts in their own table notes regardless).
func runExperiments(w io.Writer, id string, deterministicOnly, observing, analyzing bool) (ran bool, err error) {
	for _, e := range experiments {
		if id != "" && e.id != id {
			continue
		}
		if deterministicOnly && !e.deterministic {
			continue
		}
		fmt.Fprintf(w, "### %s — %s\n\n", e.id, e.what)
		if err := e.run(w); err != nil {
			return ran, fmt.Errorf("%s: %w", e.id, err)
		}
		if observing {
			if s := bench.LastMetricsSummary(); s != "" {
				fmt.Fprintf(w, "%s\n\n", s)
			}
		}
		if analyzing {
			if rep := bench.LastAnalysis(); rep != nil {
				writeTable(w, bench.AnalysisTable(rep))
			}
		}
		ran = true
	}
	return ran, nil
}
