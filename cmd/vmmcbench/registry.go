package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/sim"
)

// Per-experiment flags. Each sweep owns the flags carrying its prefix;
// every other experiment ignores them. A list flag's second argument is
// its floor: every entry must exceed it. An unset list flag leaves the
// sweep on its defaults.
var (
	scaleNodes  = listFlag("scale-nodes", 1, "scalesweep cluster sizes, comma-separated (default 16,64,256)")
	healOutages = listFlag("heal-outages", 0, "healsweep link-outage durations in microseconds, comma-separated (default 2000,6000,12000)")
	collNodes   = listFlag("coll-nodes", 1, "collsweep communicator sizes, comma-separated (default 4,8,16)")
	tenantCalls = flag.Int("tenant-calls", 0, "tenantsweep victim vRPC calls per cell (0 = default 32)")
	tenantRates = listFlag("tenant-rates", 0.0, "tenantsweep qos=on aggressor budgets in bytes/sec, comma-separated (default 5e6,10e6,20e6)")
	serveRates  = listFlag("serve-rates", 0.0, "servesweep total offered loads in req/s, comma-separated (default 15000,30000,60000)")
	serveShards = listFlag("serve-shards", 0, "servesweep shard counts, comma-separated (default 2)")
	serveReqs   = flag.Int("serve-requests", 0, "servesweep offered requests per cell (0 = default 240)")
	replicaR    = listFlag("replica-r", 0, "replicasweep replication factors, comma-separated (default 1,2,3)")
	replicaRate = listFlag("replica-rates", 0.0, "replicasweep total offered loads in req/s, comma-separated (default 30000,70000)")
	replicaReqs = flag.Int("replica-requests", 0, "replicasweep offered requests per cell (0 = default 240)")
)

// listValue is a comma-separated list flag. Set rejects an entry that
// does not parse or is not above floor, so flag.Parse refuses a bad
// value before any experiment runs.
type listValue[T int | float64] struct {
	name  string
	floor T
	vals  []T
}

// listFlag defines a list flag and returns its parsed entries (nil when
// unset).
func listFlag[T int | float64](name string, floor T, usage string) *[]T {
	l := &listValue[T]{name: name, floor: floor}
	flag.Var(l, name, usage)
	return &l.vals
}

func (l *listValue[T]) String() string { return strings.Trim(fmt.Sprint(l.vals), "[]") }

func (l *listValue[T]) Set(s string) error {
	l.vals = nil
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		var v T
		var err error
		switch p := any(&v).(type) {
		case *int:
			*p, err = strconv.Atoi(strings.TrimSpace(part))
		case *float64:
			*p, err = strconv.ParseFloat(strings.TrimSpace(part), 64)
		}
		if err != nil || v <= l.floor {
			return fmt.Errorf("bad -%s entry %q", l.name, part)
		}
		l.vals = append(l.vals, v)
	}
	return nil
}

// experiment is one registry entry. Deterministic experiments print only
// virtual-time-derived quantities, so their output is byte-identical
// across runs and machines; `-deterministic` selects exactly that set,
// RESULTS.txt is its captured output, and the golden test pins the two
// against each other. scalesweep reports wall-clock events/sec and is
// the one exclusion.
type experiment struct {
	id, what      string
	deterministic bool
	run           func(rn *bench.Run, w io.Writer) error
}

// experiments is the registry, in RESULTS.txt rendering order.
var experiments = []experiment{
	{"headline", "abstract: 9.8 us latency, 80.4 MB/s bandwidth", true,
		tableExp((*bench.Run).Headline)},
	{"fig1", "Figure 1: host<->LANai DMA bandwidth vs block size", true,
		seriesExp((*bench.Run).Fig1HostDMA)},
	{"fig2", "Figure 2: one-way latency for short messages", true,
		seriesExp(oneSeries((*bench.Run).Fig2Latency))},
	{"fig3", "Figure 3: bandwidth vs message size (one-way, bidirectional)", true,
		seriesExp((*bench.Run).Fig3Bandwidth)},
	{"fig4", "Figure 4: synchronous/asynchronous send overhead", true,
		seriesExp((*bench.Run).Fig4SendOverhead)},
	{"tabhw", "Section 5.2: hardware cost microprobes", true,
		tableExp((*bench.Run).TableHardwareCosts)},
	{"tabvrpc", "Section 5.4: vRPC on Myrinet, SHRIMP, and kernel UDP", true,
		tableExp((*bench.Run).TableVRPC)},
	{"tabshrimp", "Section 6: SHRIMP vs Myrinet design tradeoffs", true,
		tableExp((*bench.Run).TableShrimpComparison)},
	{"tabrelated", "Section 7: Myrinet API, FM, PM, AM comparison", true,
		tableExp((*bench.Run).TableRelatedWork)},
	{"extensions", "follow-on features: redirection, reliability, zero-copy RPC", true,
		tableExp((*bench.Run).ExtensionsTable)},
	{"ablations", "design-choice ablations (pipelining, tight loop, threshold, TLB, senders)", true,
		runAblations},
	{"faultsweep", "robustness: goodput vs injected wire error rate, reliability off/on", true,
		tableExp((*bench.Run).FaultSweep)},
	{"scalesweep", "scaling: all-to-all goodput and simulator events/sec, 16-256 nodes", false,
		tableExp(func(rn *bench.Run) (bench.Table, error) {
			return rn.ScaleSweep(bench.ScaleConfig{Nodes: *scaleNodes})
		})},
	{"healsweep", "self-healing: goodput vs link/switch outage on a redundant fabric", true,
		tableExp(func(rn *bench.Run) (bench.Table, error) {
			var outages []sim.Time
			for _, us := range *healOutages {
				outages = append(outages, sim.Time(us)*sim.Microsecond)
			}
			return rn.HealSweep(bench.HealSweepConfig{Outages: outages})
		})},
	{"collsweep", "collectives: all-reduce tree vs ring crossover, heal interop", true,
		tableExp(func(rn *bench.Run) (bench.Table, error) {
			return rn.CollSweep(bench.CollConfig{Nodes: *collNodes})
		})},
	{"tenantsweep", "multi-tenancy: victim vRPC latency vs bulk neighbor, QoS off/on, crash", true,
		tableExp(func(rn *bench.Run) (bench.Table, error) {
			return rn.TenantSweep(bench.TenantConfig{Calls: *tenantCalls, Rates: *tenantRates})
		})},
	{"servesweep", "serving tier: open-loop load vs tail latency, admission off/on, hot shard, outage", true,
		tableExp(func(rn *bench.Run) (bench.Table, error) {
			return rn.ServeSweep(bench.ServeConfig{Rates: *serveRates, Shards: *serveShards, Requests: *serveReqs})
		})},
	{"replicasweep", "replication: R-way shards at equal capacity, load-aware routing, replica kill", true,
		tableExp(func(rn *bench.Run) (bench.Table, error) {
			return rn.ReplicaSweep(bench.ReplicaConfig{Rs: *replicaR, Rates: *replicaRate, Requests: *replicaReqs})
		})},
}

// tableExp adapts a table-producing benchmark to a registry run func.
func tableExp(f func(*bench.Run) (bench.Table, error)) func(*bench.Run, io.Writer) error {
	return func(rn *bench.Run, w io.Writer) error {
		t, err := f(rn)
		if err == nil {
			writeTable(w, t)
		}
		return err
	}
}

// seriesExp adapts a series-producing benchmark to a registry run func.
func seriesExp(f func(*bench.Run) ([]bench.Series, error)) func(*bench.Run, io.Writer) error {
	return func(rn *bench.Run, w io.Writer) error {
		ss, err := f(rn)
		if err != nil {
			return err
		}
		for _, s := range ss {
			fmt.Fprintln(w, s.Format())
		}
		return nil
	}
}

// oneSeries lifts a single-series benchmark into seriesExp's shape.
func oneSeries(f func(*bench.Run) (bench.Series, error)) func(*bench.Run) ([]bench.Series, error) {
	return func(rn *bench.Run) ([]bench.Series, error) {
		s, err := f(rn)
		return []bench.Series{s}, err
	}
}

func runAblations(rn *bench.Run, w io.Writer) error {
	for _, f := range []func(*bench.Run) (bench.Table, error){
		(*bench.Run).AblationPipeline,
		(*bench.Run).AblationTightLoop,
		(*bench.Run).AblationThreshold,
		(*bench.Run).AblationTLB,
		(*bench.Run).AblationSenders,
		(*bench.Run).AblationReliability,
	} {
		t, err := f(rn)
		if err != nil {
			return err
		}
		writeTable(w, t)
	}
	return nil
}

func writeTable(w io.Writer, t bench.Table) { fmt.Fprintln(w, t.Format()) }

// runExperiments renders every experiment matching the filter to w, in
// registry order, for main and the RESULTS.txt golden test. Each gets a
// Run and an output buffer of its own: the deterministic ones run
// concurrently, scalesweep (host-clock events/sec) alone after them.
// Every experiment prints its event fingerprint after its output, and
// every sweep writes its artifact into obs.OutDir. Only the last
// experiment gets obs's other artifact paths, so it alone arms the trace
// and writes those files, once. A trace or metrics artifact prints each
// experiment's metrics summary; analyzing, its full bottleneck table.
func runExperiments(w io.Writer, id string, deterministicOnly, analyzing bool, obs bench.Observability) (ran bool, err error) {
	type job struct {
		experiment
		rn  *bench.Run
		out bytes.Buffer
		err error
	}
	var jobs []*job
	for _, e := range experiments {
		if (id == "" || e.id == id) && (!deterministicOnly || e.deterministic) {
			shared := bench.Observability{VerifySkips: obs.VerifySkips, VerifyIntact: obs.VerifyIntact, OutDir: obs.OutDir}
			jobs = append(jobs, &job{experiment: e, rn: &bench.Run{Observability: shared}})
		}
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		if i == len(jobs)-1 {
			j.rn.Observability = obs
		}
		if j.deterministic {
			wg.Add(1)
			go func() { defer wg.Done(); j.err = j.run(j.rn, &j.out) }()
		}
	}
	wg.Wait()
	for _, j := range jobs {
		if !j.deterministic {
			j.err = j.run(j.rn, &j.out)
		}
		fmt.Fprintf(w, "### %s — %s\n\n", j.id, j.what)
		j.out.WriteTo(w)
		if j.err != nil {
			return true, fmt.Errorf("%s: %w", j.id, j.err)
		}
		fmt.Fprintf(w, "%s\n\n", j.rn.Fingerprint())
		if s := j.rn.Summary(); s != "" && (obs.TracePath != "" || obs.MetricsPath != "") {
			fmt.Fprintf(w, "%s\n\n", s)
		}
		if rep := j.rn.Report(); analyzing && rep != nil {
			writeTable(w, bench.AnalysisTable(rep))
		}
	}
	if len(jobs) == 0 {
		return false, nil
	}
	return true, jobs[len(jobs)-1].rn.WriteArtifacts()
}
