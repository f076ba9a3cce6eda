package doccheck

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/vmmc"
)

// instanceRe matches the per-instance part of a metric name: a node, board,
// NIC or PCI bus number.
var instanceRe = regexp.MustCompile(`(node|lanai|nic|pci:)\d+`)

// metricSurface builds a cluster with every component that registers
// metrics — the reliable link with healing, a fault plan, a paced link
// class, a collectives communicator and a tenant manager — boots it, and
// returns the sorted names in its registry with instance numbers written
// as <id>. Components register their metrics when they are built, so the
// run does nothing else.
func metricSurface(t *testing.T) []string {
	t.Helper()
	eng := sim.NewEngine()
	c, err := vmmc.NewCluster(eng, vmmc.Options{
		Nodes: 2, Reliable: true, Heal: true, Faults: fault.NewPlan(eng, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[0].Board.ConfigureLinkClass(1, 1e6, 16<<10)
	tenant.NewManager(c)
	c.Go("build", func(p *sim.Proc) {
		var procs []*vmmc.Process
		for _, n := range c.Nodes {
			proc, err := n.NewProcess(p)
			if err != nil {
				t.Error(err)
				return
			}
			procs = append(procs, proc)
		}
		if _, err := coll.Build(p, procs, coll.Options{}); err != nil {
			t.Error(err)
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	snap := eng.MetricsSnapshot()
	seen := map[string]bool{}
	add := func(name string) { seen[instanceRe.ReplaceAllString(name, "$1<id>")] = true }
	for _, m := range snap.Counters {
		add(m.Name)
	}
	for _, m := range snap.Gauges {
		add(m.Name)
	}
	for _, m := range snap.Utilizations {
		add(m.Name)
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The metrics registry is the one store of every count, so its names are
// an interface: sweeps, the benchmark module and the analyzer read counts
// by name. The surface is pinned in testdata/metric_surface.txt, the way
// TestConfigSurface pins the configuration fields, and
// docs/OBSERVABILITY.md must list every name, so a new metric is a visible
// line in review and never undocumented.
func TestMetricSurface(t *testing.T) {
	got := metricSurface(t)
	t.Logf("%d metric names", len(got))
	data, err := os.ReadFile(filepath.Join("testdata", "metric_surface.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	inWant := make(map[string]bool, len(want))
	for _, w := range want {
		inWant[w] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, g := range got {
		inGot[g] = true
		if !inWant[g] {
			t.Errorf("new metric %s: add it to testdata/metric_surface.txt", g)
		}
	}
	for _, w := range want {
		if !inGot[w] {
			t.Errorf("metric %s is gone: drop it from testdata/metric_surface.txt", w)
		}
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		if !strings.Contains(string(doc), "`"+g+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not list metric `%s`", g)
		}
	}
}
