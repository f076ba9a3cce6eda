// Package analysis is the always-on bottleneck attribution layer: a
// streaming consumer over internal/trace that watches resource spans,
// wait queues and occupancy counters as a model runs, and distills them
// into a ranked top-k bottleneck report.
//
// The analyzer subscribes to the engine's trace collector as a
// trace.Sink, so it sees every event without requiring the ring buffer
// to be armed. It understands three shapes of evidence:
//
//   - busy spans — category "res" spans named "held" emitted by
//     sim.Resource on every grant/release, plus the "dma" transfer and
//     "lcp" control-program spans nested inside them. Overlapping spans
//     on one component are union-counted (a depth counter), so nesting
//     never double-counts busy time.
//   - wait spans — category "res" spans named "wait", opened when a
//     process queues behind a held resource and closed when it is
//     granted. FIFO arbitration in sim.Resource means begin/end pairs
//     match in FIFO order, which is exactly how the analyzer pairs them.
//   - occupancy counters — category "sram" samples (absolute bytes,
//     normalized against hw.Capacities.SRAMBytes) and category "rl"
//     samples (reliable-window credit occupancy, already a fraction).
//
// Components aggregate into resource classes ("recv-dma", "link-tx", …)
// so a 256-node sweep reports "recv DMA, 87% busy" instead of 256
// per-instance rows; the busiest instance is still named. Busy time is
// additionally bucketed over virtual time (fold-doubling buckets, bounded
// memory) to expose peak-window utilization, and category "phase"
// instants split the run into phases for per-phase attribution.
//
// Everything — bucket folding, histogram percentiles, ranking, JSON
// rendering — is integer-deterministic: two runs of the same model
// produce byte-identical reports.
package analysis

import (
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/trace"
)

// Config tunes an Analyzer. The zero value selects sane defaults.
type Config struct {
	// Caps are the capacity constants achieved rates and SRAM occupancy
	// are normalized against. The zero value selects hw.Default().
	Caps hw.Capacities
}

const (
	// topK is how many resources the report's ranking highlights. The
	// report always carries every class; topK only drives the verdict and
	// table formatting.
	topK = 3
	// initialBucketNS is the starting virtual-time bucket width for
	// peak-window utilization. Buckets fold-double whenever the run
	// outgrows maxBuckets of them, so memory stays bounded for any run
	// length.
	initialBucketNS = 8192
	maxBuckets      = 1024
)

// Analyzer consumes trace events and accumulates per-resource busy,
// wait and occupancy statistics. Attach it with
// Engine.Trace().Subscribe(a); call Finalize once the run is over.
// An Analyzer is single-run: build a fresh one per experiment.
type Analyzer struct {
	cfg     Config
	comps   map[string]*compState // nil entry = classified as untracked
	classes map[string]*classState
	occs    map[string]*occState
	phases  []phaseMark
	buckets bucketSet
	// attr holds the attribution buckets by category ("tenant", "serve",
	// "replica"), then by bare name.
	attr map[string]map[string]*tenantState
}

// tenantState accumulates one attribution bucket: lifecycle instant counts
// and the last sample of each usage counter, both in the bucket's category
// on a "<category>/<name>" component.
type tenantState struct {
	events   map[string]int64
	counters map[string]float64
}

type phaseMark struct {
	name    string
	startNS int64
}

// compState is one tracked component (one resource instance).
type compState struct {
	name  string
	class *classState

	// Busy union counting: depth of open busy spans; a busy segment runs
	// from the 0->1 transition to the 1->0 transition.
	depth     int
	busyStart int64
	busyNS    int64
	phaseBusy []int64 // indexed like Analyzer.phases
	grants    int64

	// Wait pairing (FIFO) and distribution.
	waitOpen  []int64 // begin timestamps, FIFO
	waitHead  int
	waitNS    int64
	waitCount int64
	waitMax   int64
	phaseWait []int64
	hist      *logHist

	// Time-weighted queue depth (number of open waits).
	qDepth   int
	qLastT   int64
	qDepthNS map[int]int64
}

// classState aggregates the components of one resource class.
type classState struct {
	key     string
	label   string
	comps   []*compState
	buckets classBuckets
}

// occState is one occupancy track (SRAM bytes, window credits).
type occState struct {
	comp  string
	class string
	label string
	denom float64 // divisor turning samples into a 0..1 fraction

	lastFrac   float64
	lastT      int64
	weightedNS float64 // integral of frac over time, in frac*ns
	peak       float64
}

// NewAnalyzer returns an analyzer ready to Subscribe.
func NewAnalyzer(cfg Config) *Analyzer {
	if cfg.Caps.SRAMBytes == 0 {
		cfg.Caps = hw.Default().Capacities()
	}
	return &Analyzer{
		cfg:     cfg,
		comps:   make(map[string]*compState),
		classes: make(map[string]*classState),
		occs:    make(map[string]*occState),
		phases:  []phaseMark{{name: "run", startNS: 0}},
		buckets: newBucketSet(initialBucketNS, maxBuckets),
		attr:    make(map[string]map[string]*tenantState),
	}
}

// Consume implements trace.Sink. It runs on the simulation goroutine;
// events arrive in virtual-time order.
func (a *Analyzer) Consume(ev trace.Event) {
	switch ev.Ph {
	case trace.PhaseBegin:
		if ev.Category == "res" && ev.Name == "wait" {
			st := a.comp(ev.Component)
			if st == nil {
				return
			}
			st.weighDepth(ev.T)
			st.qDepth++
			st.waitOpen = append(st.waitOpen, ev.T)
			return
		}
		if busySpan(ev.Category) {
			st := a.comp(ev.Component)
			if st == nil {
				return
			}
			if ev.Category == "res" { // name == "held"
				st.grants++
			}
			if st.depth == 0 {
				st.busyStart = ev.T
			}
			st.depth++
		}
	case trace.PhaseEnd:
		if ev.Category == "res" && ev.Name == "wait" {
			st := a.comp(ev.Component)
			if st == nil || st.waitHead >= len(st.waitOpen) {
				return
			}
			begin := st.waitOpen[st.waitHead]
			st.waitHead++
			if st.waitHead == len(st.waitOpen) {
				st.waitOpen = st.waitOpen[:0]
				st.waitHead = 0
			}
			st.weighDepth(ev.T)
			st.qDepth--
			st.recordWait(ev.T-begin, len(a.phases)-1)
			return
		}
		if busySpan(ev.Category) {
			st := a.comp(ev.Component)
			if st == nil || st.depth == 0 {
				return
			}
			st.depth--
			if st.depth == 0 {
				a.flushBusy(st, ev.T)
			}
		}
	case trace.PhaseCounter:
		switch ev.Category {
		case "sram":
			a.occ(ev.Component, "sram").sample(ev.T, ev.Value)
		case "rl":
			if ev.Name == "window_occupancy" {
				a.occ(ev.Component, "rl").sample(ev.T, ev.Value)
			}
		case "tenant", "serve", "replica":
			a.attribution(ev.Category, ev.Component).counters[ev.Name] = ev.Value
		}
	case trace.PhaseInstant:
		switch ev.Category {
		case "phase":
			a.beginPhase(ev.Name, ev.T)
		case "tenant", "serve", "replica":
			a.attribution(ev.Category, ev.Component).events[ev.Name]++
		}
	}
}

// attribution returns the bucket for a "<category>/<name>" component,
// keyed by the bare name: a tenant (emitted by internal/tenant), a serving
// shard (internal/serve), or a replica (names look like "s2r1": shard 2,
// replica 1; internal/replica's EmitUsage).
func (a *Analyzer) attribution(category, comp string) *tenantState {
	byName := a.attr[category]
	if byName == nil {
		byName = make(map[string]*tenantState)
		a.attr[category] = byName
	}
	name := strings.TrimPrefix(strings.TrimPrefix(comp, category), "/")
	ts, ok := byName[name]
	if !ok {
		ts = &tenantState{events: make(map[string]int64), counters: make(map[string]float64)}
		byName[name] = ts
	}
	return ts
}

// busySpan reports whether spans of this category count toward a
// component's busy time. "res" held spans are the primary signal; "dma"
// transfer and "lcp" control-program spans nest inside or stand alone and
// are union-counted with them.
func busySpan(cat string) bool {
	return cat == "res" || cat == "dma" || cat == "lcp"
}

// flushBusy closes the open busy segment of st at now, crediting the
// current phase and the peak-window buckets.
func (a *Analyzer) flushBusy(st *compState, now int64) {
	d := now - st.busyStart
	if d <= 0 {
		return
	}
	st.busyNS += d
	pi := len(a.phases) - 1
	for len(st.phaseBusy) <= pi {
		st.phaseBusy = append(st.phaseBusy, 0)
	}
	st.phaseBusy[pi] += d
	st.class.addBusy(&a.buckets, st.busyStart, now)
}

// beginPhase splits the run at now: open busy segments are flushed into
// the ending phase and restarted, so attribution is exact at the boundary.
func (a *Analyzer) beginPhase(name string, now int64) {
	for _, st := range a.comps {
		if st != nil && st.depth > 0 {
			a.flushBusy(st, now)
			st.busyStart = now
		}
	}
	a.phases = append(a.phases, phaseMark{name: name, startNS: now})
}

func (st *compState) recordWait(d int64, phase int) {
	if d < 0 {
		d = 0
	}
	st.waitNS += d
	st.waitCount++
	if d > st.waitMax {
		st.waitMax = d
	}
	for len(st.phaseWait) <= phase {
		st.phaseWait = append(st.phaseWait, 0)
	}
	st.phaseWait[phase] += d
	if st.hist == nil {
		st.hist = &logHist{}
	}
	st.hist.add(d)
}

// weighDepth accumulates time-at-current-queue-depth before a transition.
func (st *compState) weighDepth(now int64) {
	if st.qDepthNS == nil {
		st.qDepthNS = make(map[int]int64)
	}
	st.qDepthNS[st.qDepth] += now - st.qLastT
	st.qLastT = now
}

func (o *occState) sample(now int64, v float64) {
	o.weightedNS += o.lastFrac * float64(now-o.lastT)
	o.lastT = now
	f := v
	if o.denom > 0 {
		f = v / o.denom
	}
	o.lastFrac = f
	if f > o.peak {
		o.peak = f
	}
}

// comp returns the state for a component, classifying it on first sight.
// Unclassified components get a nil entry so the string work happens once.
func (a *Analyzer) comp(name string) *compState {
	st, ok := a.comps[name]
	if ok {
		return st
	}
	key, label := classify(name)
	if key == "" {
		a.comps[name] = nil
		return nil
	}
	cl, ok := a.classes[key]
	if !ok {
		cl = &classState{key: key, label: label}
		a.classes[key] = cl
	}
	st = &compState{name: name, class: cl}
	cl.comps = append(cl.comps, st)
	a.comps[name] = st
	return st
}

func (a *Analyzer) occ(comp, cat string) *occState {
	k := cat + "|" + comp
	o, ok := a.occs[k]
	if ok {
		return o
	}
	switch cat {
	case "sram":
		o = &occState{comp: comp, class: "sram", label: "LANai SRAM",
			denom: float64(a.cfg.Caps.SRAMBytes)}
	case "rl":
		o = &occState{comp: comp, class: "rl-window", label: "reliable window credits"}
	}
	a.occs[k] = o
	return o
}

// classify maps a trace component name to its resource class. An empty
// key means the component is not a contended resource the analyzer
// tracks.
func classify(comp string) (key, label string) {
	switch {
	case strings.HasPrefix(comp, "bus:"):
		rest := comp[len("bus:"):]
		if i := strings.IndexByte(rest, ':'); i >= 0 {
			rest = rest[:i]
		}
		return "bus-" + rest, "host " + strings.ToUpper(rest) + " bus"
	case strings.HasPrefix(comp, "dma:"):
		switch comp[strings.LastIndexByte(comp, ':')+1:] {
		case "host":
			return "host-dma", "host DMA (host<->SRAM)"
		case "netsend":
			return "send-dma", "send DMA (SRAM->wire)"
		case "netrecv":
			return "recv-dma", "recv DMA (wire->SRAM)"
		default:
			return "other-dma", "other DMA"
		}
	case strings.HasPrefix(comp, "myri:") && strings.HasSuffix(comp, ":tx"):
		return "link-tx", "link wire (injection)"
	case strings.HasSuffix(comp, "/lcp"):
		return "lcp", "LANai control program"
	}
	return "", ""
}

// capacityBps returns the peak byte rate for a class, 0 when rate
// normalization does not apply.
func (a *Analyzer) capacityBps(class string) float64 {
	switch class {
	case "host-dma":
		return a.cfg.Caps.HostToLANaiBytesPerSec
	case "send-dma":
		return a.cfg.Caps.NetSendBytesPerSec
	case "recv-dma":
		return a.cfg.Caps.NetRecvBytesPerSec
	case "link-tx":
		return a.cfg.Caps.LinkBytesPerSec
	}
	return 0
}

// classBytes sums the snapshot byte counters that feed a class's achieved
// rate: dma:<name>/bytes for the DMA classes, nic<id>/bytes_injected for
// link injection.
func classBytes(cl *classState, snap trace.Snapshot) int64 {
	var total int64
	for _, st := range cl.comps {
		var name string
		switch {
		case strings.HasPrefix(st.name, "dma:"):
			name = st.name + "/bytes"
		case strings.HasPrefix(st.name, "myri:nic"):
			id := strings.TrimSuffix(strings.TrimPrefix(st.name, "myri:"), ":tx")
			name = id + "/bytes_injected"
		default:
			continue
		}
		if v, ok := snap.Counter(name); ok {
			total += v
		}
	}
	return total
}

// Finalize closes all open state at virtual time now and builds the
// report. snap supplies the byte counters achieved rates are computed
// from; pass the engine's MetricsSnapshot. The analyzer must not consume
// further events afterwards.
func (a *Analyzer) Finalize(now int64, snap trace.Snapshot) *Report {
	// Close open busy segments, still-pending waits and occupancy tails.
	lastPhase := len(a.phases) - 1
	names := make([]string, 0, len(a.comps))
	for name, st := range a.comps {
		if st != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		st := a.comps[name]
		if st.depth > 0 {
			a.flushBusy(st, now)
			st.depth = 0
		}
		for st.waitHead < len(st.waitOpen) {
			begin := st.waitOpen[st.waitHead]
			st.waitHead++
			st.weighDepth(now)
			st.qDepth--
			st.recordWait(now-begin, lastPhase)
		}
		if st.qDepthNS != nil {
			st.weighDepth(now)
		}
	}

	rep := &Report{
		WindowNS: now,
		BucketNS: a.buckets.widthNS,
		TopK:     topK,
	}
	for i, ph := range a.phases {
		end := now
		if i+1 < len(a.phases) {
			end = a.phases[i+1].startNS
		}
		rep.Phases = append(rep.Phases, PhaseSpan{Name: ph.name, StartNS: ph.startNS, EndNS: end})
	}

	classKeys := make([]string, 0, len(a.classes))
	for k := range a.classes {
		classKeys = append(classKeys, k)
	}
	sort.Strings(classKeys)
	for _, k := range classKeys {
		cl := a.classes[k]
		sort.Slice(cl.comps, func(i, j int) bool { return cl.comps[i].name < cl.comps[j].name })
		rs := ResourceStat{Class: cl.key, Label: cl.label, Instances: len(cl.comps)}
		merged := &logHist{}
		depthNS := make(map[int]int64)
		var sumBusy int64
		for _, st := range cl.comps {
			sumBusy += st.busyNS
			if st.busyNS > rs.busiestNS || rs.Busiest == "" {
				rs.busiestNS = st.busyNS
				rs.Busiest = st.name
			}
			rs.Grants += st.grants
			rs.WaitCount += st.waitCount
			rs.WaitTotalNS += st.waitNS
			if st.waitMax > rs.WaitMaxNS {
				rs.WaitMaxNS = st.waitMax
			}
			if st.hist != nil {
				merged.merge(st.hist)
			}
			for d, ns := range st.qDepthNS {
				depthNS[d] += ns
			}
		}
		if now > 0 {
			rs.BusyFrac = frac(rs.busiestNS, now)
			rs.MeanBusyFrac = frac(sumBusy, now*int64(len(cl.comps)))
		}
		// Histogram bins report their upper bound; clamp to the exact
		// observed maximum so p50/p99 never exceed it.
		rs.WaitP50NS = merged.percentile(50)
		rs.WaitP99NS = merged.percentile(99)
		if rs.WaitP50NS > rs.WaitMaxNS {
			rs.WaitP50NS = rs.WaitMaxNS
		}
		if rs.WaitP99NS > rs.WaitMaxNS {
			rs.WaitP99NS = rs.WaitMaxNS
		}
		rs.QueueP50, rs.QueueMax = depthPercentiles(depthNS)
		rs.PeakBucketFrac = a.buckets.peakFrac(cl, now)
		if capBps := a.capacityBps(cl.key); capBps > 0 && now > 0 {
			bytes := classBytes(cl, snap)
			rs.RateFrac = float64(bytes) / (float64(now) / 1e9) / (capBps * float64(len(cl.comps)))
		}
		for pi, ph := range rep.Phases {
			dur := ph.EndNS - ph.StartNS
			pr := PhaseResource{Phase: ph.Name}
			for _, st := range cl.comps {
				if pi < len(st.phaseBusy) && dur > 0 {
					if f := frac(st.phaseBusy[pi], dur); f > pr.BusyFrac {
						pr.BusyFrac = f
					}
				}
				if pi < len(st.phaseWait) {
					pr.WaitNS += st.phaseWait[pi]
				}
			}
			rs.PerPhase = append(rs.PerPhase, pr)
		}
		rep.Resources = append(rep.Resources, rs)
	}
	// Rank: busiest instance first; wait attribution breaks ties.
	sort.Slice(rep.Resources, func(i, j int) bool {
		ri, rj := rep.Resources[i], rep.Resources[j]
		if ri.BusyFrac != rj.BusyFrac {
			return ri.BusyFrac > rj.BusyFrac
		}
		if ri.WaitTotalNS != rj.WaitTotalNS {
			return ri.WaitTotalNS > rj.WaitTotalNS
		}
		return ri.Class < rj.Class
	})

	occKeys := make([]string, 0, len(a.occs))
	for k := range a.occs {
		occKeys = append(occKeys, k)
	}
	sort.Strings(occKeys)
	byClass := make(map[string]*OccupancyStat)
	var occOrder []string
	for _, k := range occKeys {
		o := a.occs[k]
		o.weightedNS += o.lastFrac * float64(now-o.lastT)
		os, ok := byClass[o.class]
		if !ok {
			os = &OccupancyStat{Class: o.class, Label: o.label}
			byClass[o.class] = os
			occOrder = append(occOrder, o.class)
		}
		os.Instances++
		mean := 0.0
		if now > 0 {
			mean = o.weightedNS / float64(now)
		}
		os.meanSum += mean
		if o.peak > os.PeakFrac || os.Busiest == "" {
			os.PeakFrac = o.peak
			os.Busiest = o.comp
		}
	}
	for _, c := range occOrder {
		os := byClass[c]
		os.MeanFrac = os.meanSum / float64(os.Instances)
		rep.Occupancies = append(rep.Occupancies, *os)
	}

	rep.Tenants = collectAttr(a.attr["tenant"])
	rep.Serve = collectAttr(a.attr["serve"])
	rep.Replica = collectAttr(a.attr["replica"])

	rep.Verdict = rep.verdict()
	return rep
}

// collectAttr flattens an attribution map (tenant or serve buckets) into
// name-sorted stats with name-sorted events and counters.
func collectAttr(m map[string]*tenantState) []TenantStat {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []TenantStat
	for _, name := range names {
		ts := m[name]
		st := TenantStat{Name: name}
		evNames := make([]string, 0, len(ts.events))
		for k := range ts.events {
			evNames = append(evNames, k)
		}
		sort.Strings(evNames)
		for _, k := range evNames {
			st.Events = append(st.Events, TenantEvent{Name: k, Count: ts.events[k]})
		}
		ctrNames := make([]string, 0, len(ts.counters))
		for k := range ts.counters {
			ctrNames = append(ctrNames, k)
		}
		sort.Strings(ctrNames)
		for _, k := range ctrNames {
			st.Counters = append(st.Counters, TenantCounter{Name: k, Value: ts.counters[k]})
		}
		out = append(out, st)
	}
	return out
}

func frac(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
