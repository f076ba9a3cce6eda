package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so the
// spreads printed here are the ones the driver computes.
func quartiles(values []float64) [3]float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		q[i-1] = (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q
}

// runChild runs one end-to-end run of a workload in a process of its own,
// exactly as the driver does, and returns the metrics of its result line. A
// finished simulation's memory cannot be released (see maxSetupReps), so
// repeated runs do not share a process.
func runChild(w *workload, seed uint64, seconds float64) (metrics, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	m := make(metrics, len(r.Metrics))
	for name, v := range r.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// agree runs every workload n times in each of two interleaved sets
// (A B A B ...) with the same seed, one process per run. Every exact
// metric must be bit-identical across all 2n runs; for the host-dependent
// metrics the two set medians must agree within the metric's bound. It
// prints each set's median and quartiles.
func agree(n int, seed uint64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-agree needs at least 2 runs per set")
	}
	exact := make(map[string]bool, len(exactMetrics))
	for _, name := range exactMetrics {
		exact[name] = true
	}
	var failures []string
	for _, w := range workloads {
		var sets [2][]metrics
		for i := 0; i < n; i++ {
			for set := range sets {
				m, err := runChild(w, seed, seconds)
				if err != nil {
					return err
				}
				sets[set] = append(sets[set], m)
			}
		}
		fmt.Printf("workload %s: two sets of %d runs, seed %d\n", w.name, n, seed)
		for _, sp := range endToEndSpec {
			var q [2][3]float64
			for set := range sets {
				vals := make([]float64, n)
				for i, m := range sets[set] {
					vals[i] = m[sp.Name]
				}
				q[set] = quartiles(vals)
			}
			verdict := "ok"
			if exact[sp.Name] {
				first := sets[0][0][sp.Name]
				for set := range sets {
					for _, m := range sets[set] {
						if m[sp.Name] != first {
							verdict = "NOT EXACT"
						}
					}
				}
			} else if diff := math.Abs(q[1][1]-q[0][1]) / q[0][1]; diff > sp.Bound {
				verdict = fmt.Sprintf("MEDIANS DIFFER by %.1f%% (bound %.0f%%)", diff*100, sp.Bound*100)
			}
			fmt.Printf("  %-22s A %12.6g [%12.6g %12.6g]  B %12.6g [%12.6g %12.6g]  %s\n",
				sp.Name, q[0][1], q[0][0], q[0][2], q[1][1], q[1][0], q[1][2], verdict)
			if verdict != "ok" {
				failures = append(failures, w.name+"/"+sp.Name+": "+verdict)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("sets disagree: %v", failures)
	}
	return nil
}
