package analysis

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Report is the finalized bottleneck analysis of one run. Resources are
// ranked most-contended first (busiest instance's busy fraction, ties
// broken by total wait time, then class name); everything in it is
// deterministic for a deterministic run.
type Report struct {
	// WindowNS is the virtual-time window analyzed, [0, WindowNS].
	WindowNS int64
	// BucketNS is the final peak-window bucket width after folding.
	BucketNS int64
	// TopK is how many resources the verdict and table formatting
	// highlight.
	TopK int
	// Phases are the experiment phases, in order. There is always at
	// least the implicit "run" phase.
	Phases []PhaseSpan
	// Resources holds one entry per resource class, ranked.
	Resources []ResourceStat
	// Occupancies holds the capacity-occupancy tracks (SRAM, window
	// credits), sorted by class.
	Occupancies []OccupancyStat
	// Tenants holds per-tenant attribution (lifecycle events and usage
	// counters), sorted by name. Empty — and absent from the JSON — for
	// runs without a tenant manager.
	Tenants []TenantStat
	// Serve holds per-shard serving-tier attribution (admission and
	// outcome counters), sorted by shard name. Empty — and absent from
	// the JSON — for runs without a serving tier.
	Serve []TenantStat
	// Replica holds per-replica attribution for the replicated serving
	// tier (routing, admission, and replication counters), sorted by
	// "s<shard>r<replica>" name. Empty — and absent from the JSON — for
	// runs without replication.
	Replica []TenantStat
	// Verdict is the one-paragraph textual conclusion.
	Verdict string
}

// TenantStat is one tenant's attribution: how its lifecycle unfolded and
// the last sample of each usage counter it published.
type TenantStat struct {
	Name     string
	Events   []TenantEvent
	Counters []TenantCounter
}

// TenantEvent counts one lifecycle instant ("admitted", "killed", ...).
type TenantEvent struct {
	Name  string
	Count int64
}

// TenantCounter is the final sample of one usage counter
// ("pinned_frames", "link_throttled_ns", ...).
type TenantCounter struct {
	Name  string
	Value float64
}

// PhaseSpan is one experiment phase over [StartNS, EndNS).
type PhaseSpan struct {
	Name    string
	StartNS int64
	EndNS   int64
}

// ResourceStat aggregates one resource class over the run.
type ResourceStat struct {
	Class     string // stable key, e.g. "recv-dma"
	Label     string // human label, e.g. "recv DMA (wire->SRAM)"
	Instances int
	// Busiest is the instance with the largest busy time; BusyFrac is
	// its busy fraction of the window — the class's ranking key.
	Busiest   string
	BusyFrac  float64
	busiestNS int64
	// MeanBusyFrac averages the busy fraction over all instances.
	MeanBusyFrac float64
	// PeakBucketFrac is the largest instance-averaged busy fraction of
	// any virtual-time bucket — the burstiness signal.
	PeakBucketFrac float64
	// Grants counts resource grants across instances.
	Grants int64
	// Wait attribution: time processes spent queued for this class.
	WaitCount   int64
	WaitTotalNS int64
	WaitP50NS   int64
	WaitP99NS   int64
	WaitMaxNS   int64
	// Time-weighted queue depth (median and maximum observed).
	QueueP50 int
	QueueMax int
	// RateFrac is achieved bytes over the class's aggregate capacity
	// (hw.Capacities), 0 when rate normalization does not apply.
	RateFrac float64
	// PerPhase attributes busy fraction (busiest instance) and total
	// wait time to each experiment phase.
	PerPhase []PhaseResource
}

// PhaseResource is one class's attribution within one phase.
type PhaseResource struct {
	Phase    string
	BusyFrac float64
	WaitNS   int64
}

// OccupancyStat is one capacity-occupancy track, normalized to 0..1.
type OccupancyStat struct {
	Class     string
	Label     string
	Instances int
	// MeanFrac is the time-weighted mean occupancy averaged over
	// instances; PeakFrac is the largest sample anywhere; Busiest names
	// the instance that hit the peak.
	MeanFrac float64
	PeakFrac float64
	Busiest  string
	meanSum  float64
}

// verdict builds the one-paragraph conclusion.
func (r *Report) verdict() string {
	if len(r.Resources) == 0 {
		return "no contended resource activity observed in the analysis window."
	}
	top := r.Resources[0]
	var b strings.Builder
	fmt.Fprintf(&b, "limiting resource: %s, %s busy (busiest instance %s of %d), p99 queue wait %s, peak-window utilization %s",
		top.Label, pct(top.BusyFrac), top.Busiest, top.Instances,
		us(top.WaitP99NS), pct(top.PeakBucketFrac))
	if top.RateFrac > 0 {
		fmt.Fprintf(&b, ", achieved %s of aggregate capacity", pct(top.RateFrac))
	}
	// Wait-attribution leader, when it is not already the busy leader.
	waitLeader := top
	for _, rs := range r.Resources {
		if rs.WaitTotalNS > waitLeader.WaitTotalNS {
			waitLeader = rs
		}
	}
	if waitLeader.Class != top.Class && waitLeader.WaitTotalNS > 0 {
		fmt.Fprintf(&b, "; wait-attribution leader: %s with %s total queue wait (%d waits, max %s)",
			waitLeader.Label, us(waitLeader.WaitTotalNS), waitLeader.WaitCount, us(waitLeader.WaitMaxNS))
	}
	for _, o := range r.Occupancies {
		if o.PeakFrac >= 0.5 {
			fmt.Fprintf(&b, "; %s peaked at %s of capacity", o.Label, pct(o.PeakFrac))
		}
	}
	b.WriteByte('.')
	return b.String()
}

// pct formats a fraction as a deterministic percentage with one decimal.
func pct(f float64) string {
	return strconv.FormatFloat(f*100, 'f', 1, 64) + "%"
}

// us formats nanoseconds as microseconds with one decimal.
func us(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1000, 'f', 1, 64) + " us"
}

// WriteJSON writes the report as deterministic JSON with the given
// indentation prefix applied to every line. Numbers use the same stable
// formatting as the trace exporters, so two runs of a deterministic
// experiment produce byte-identical output.
func (r *Report) WriteJSON(w io.Writer, indent string) error {
	bw := bufio.NewWriter(w)
	p := func(depth int, format string, args ...interface{}) {
		bw.WriteString(indent)
		for i := 0; i < depth; i++ {
			bw.WriteString("  ")
		}
		fmt.Fprintf(bw, format, args...)
	}
	p(0, "{\n")
	p(1, "\"window_ns\": %d,\n", r.WindowNS)
	p(1, "\"bucket_ns\": %d,\n", r.BucketNS)
	p(1, "\"top_k\": %d,\n", r.TopK)
	p(1, "\"verdict\": %s,\n", trace.JSONString(r.Verdict))
	p(1, "\"phases\": [")
	for i, ph := range r.Phases {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		p(2, "{\"name\": %s, \"start_ns\": %d, \"end_ns\": %d}", trace.JSONString(ph.Name), ph.StartNS, ph.EndNS)
	}
	bw.WriteByte('\n')
	p(1, "],\n")
	p(1, "\"resources\": [")
	for i, rs := range r.Resources {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		p(2, "{\n")
		p(3, "\"rank\": %d,\n", i+1)
		p(3, "\"class\": %s,\n", trace.JSONString(rs.Class))
		p(3, "\"label\": %s,\n", trace.JSONString(rs.Label))
		p(3, "\"instances\": %d,\n", rs.Instances)
		p(3, "\"busiest\": %s,\n", trace.JSONString(rs.Busiest))
		p(3, "\"busy_frac\": %s,\n", trace.JSONFloat(rs.BusyFrac))
		p(3, "\"mean_busy_frac\": %s,\n", trace.JSONFloat(rs.MeanBusyFrac))
		p(3, "\"peak_bucket_frac\": %s,\n", trace.JSONFloat(rs.PeakBucketFrac))
		p(3, "\"rate_frac\": %s,\n", trace.JSONFloat(rs.RateFrac))
		p(3, "\"grants\": %d,\n", rs.Grants)
		p(3, "\"wait\": {\"count\": %d, \"total_ns\": %d, \"p50_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d},\n",
			rs.WaitCount, rs.WaitTotalNS, rs.WaitP50NS, rs.WaitP99NS, rs.WaitMaxNS)
		p(3, "\"queue_depth\": {\"p50\": %d, \"max\": %d},\n", rs.QueueP50, rs.QueueMax)
		p(3, "\"phases\": [")
		for j, pr := range rs.PerPhase {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteByte('\n')
			p(4, "{\"phase\": %s, \"busy_frac\": %s, \"wait_ns\": %d}",
				trace.JSONString(pr.Phase), trace.JSONFloat(pr.BusyFrac), pr.WaitNS)
		}
		bw.WriteByte('\n')
		p(3, "]\n")
		p(2, "}")
	}
	bw.WriteByte('\n')
	p(1, "],\n")
	p(1, "\"occupancy\": [")
	for i, o := range r.Occupancies {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		p(2, "{\"class\": %s, \"label\": %s, \"instances\": %d, \"mean_frac\": %s, \"peak_frac\": %s, \"busiest\": %s}",
			trace.JSONString(o.Class), trace.JSONString(o.Label), o.Instances, trace.JSONFloat(o.MeanFrac), trace.JSONFloat(o.PeakFrac), trace.JSONString(o.Busiest))
	}
	bw.WriteByte('\n')
	p(1, "]")
	// The tenants and serve sections only exist for runs that produced
	// them, so reports without those subsystems stay byte-identical to
	// before the sections existed.
	writeAttr := func(title string, stats []TenantStat) {
		bw.WriteString(",\n")
		p(1, "%q: [", title)
		for i, t := range stats {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteByte('\n')
			p(2, "{\n")
			p(3, "\"name\": %s,\n", trace.JSONString(t.Name))
			p(3, "\"events\": {")
			for j, e := range t.Events {
				if j > 0 {
					bw.WriteString(", ")
				}
				fmt.Fprintf(bw, "%s: %d", trace.JSONString(e.Name), e.Count)
			}
			bw.WriteString("},\n")
			p(3, "\"counters\": {")
			for j, c := range t.Counters {
				if j > 0 {
					bw.WriteString(", ")
				}
				fmt.Fprintf(bw, "%s: %s", trace.JSONString(c.Name), trace.JSONFloat(c.Value))
			}
			bw.WriteString("}\n")
			p(2, "}")
		}
		bw.WriteByte('\n')
		p(1, "]")
	}
	if len(r.Tenants) > 0 {
		writeAttr("tenants", r.Tenants)
	}
	if len(r.Serve) > 0 {
		writeAttr("serve", r.Serve)
	}
	if len(r.Replica) > 0 {
		writeAttr("replica", r.Replica)
	}
	bw.WriteByte('\n')
	p(0, "}")
	return bw.Flush()
}
