// Command benchmark is the repository's performance ledger: five
// workloads over the simulated VMMC stack, measured on two clocks (virtual
// time is the model's answer, host time is the simulator's cost) with
// per-layer probes. See README.md in this directory.
//
//	go run . -workload pingpong -seed 1 -seconds 8 -trace 0   (from benchmark/)
//	bash benchmark/run.sh --workload stream --seed 2 --seconds 8 --trace 1
//	go run . -agree 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

var workloads = []*workload{
	pingpongWorkload, streamWorkload, alltoallWorkload, allreduceWorkload, kvWorkload,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is the last line of standard output, the contract with the
// driver. failed counts operations the system got wrong; an overload
// verdict on kv_overload (shed, expired, late, timed out) is the admission
// policy working as designed and is reported through ok_frac instead.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The engine runs exactly one goroutine at a time; extra Ps only turn
	// its channel handoffs into cross-thread wake-ups, which makes host
	// time slower and bimodal on a shared VM. See README, "Noise method".
	runtime.GOMAXPROCS(1)

	name := flag.String("workload", "", "workload to run: pingpong, stream, alltoall, allreduce, kv_overload")
	seed := flag.Uint64("seed", 1, "seed for payload bytes and, on kv_overload, arrivals, keys and put draws")
	seconds := flag.Float64("seconds", 8, "host seconds of measured work the fixed op count is sized for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the benchmark-side spans to this file as JSON")
	agree := flag.Int("agree", 0, "run every workload N times in two interleaved sets and check that they agree")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced, *traceOut, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced int, traceOut string, agreeN int) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if agreeN > 0 {
		return agree(agreeN, seed, seconds)
	}
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := production(seed, seconds)
	var (
		m    metrics
		spec []metricSpec
		s    *section
		err  error
	)
	if traced == 0 {
		spec = endToEndSpec
		if s, err = runUntraced(w, cfg); err == nil {
			m = s.endToEnd()
		}
	} else {
		spec = perLayerSpec
		s, m, err = runTraced(w, cfg, traceOut)
	}
	if err != nil {
		return err
	}
	printTable(w, spec, m, s)
	line, err := json.Marshal(newResult(spec, m, s))
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// printTable is the human-readable view: every metric by name with its
// unit, percentiles with their sample counts.
func printTable(w *workload, spec []metricSpec, m metrics, s *section) {
	fmt.Printf("workload %s: %d ops in %d batches of %d, %.3f virtual ms\n",
		w.name, s.ops, len(s.batchHost), s.n, s.virt.Micros()/1e3)
	for _, sp := range spec {
		v, ok := m[sp.Name]
		if !ok {
			fmt.Printf("  %-32s %14s\n", sp.Name, "n/a")
			continue
		}
		fmt.Printf("  %-32s %14.6g %s", sp.Name, v, sp.Unit)
		switch sp.Name {
		case "virt_latency_p50_us":
			_, beyond := percentile(s.lat, 0.50)
			fmt.Printf("  (%d samples, %d beyond)", len(s.lat), beyond)
		case "virt_latency_p99_us":
			_, beyond := percentile(s.lat, 0.99)
			fmt.Printf("  (%d samples, %d beyond)", len(s.lat), beyond)
		}
		fmt.Println()
	}
}

// newResult builds the result line: every metric of spec, by name, with
// its unit; one that does not apply to the workload reads 0.
func newResult(spec []metricSpec, m metrics, s *section) result {
	r := result{Correct: true, Attempted: s.ops, Metrics: make(map[string]metricValue, len(spec))}
	for _, sp := range spec {
		r.Metrics[sp.Name] = metricValue{Value: m[sp.Name], Unit: sp.Unit}
	}
	return r
}
