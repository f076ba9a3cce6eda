package bench

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
)

// AnalysisTable renders a bottleneck report as a harness table: one row
// per resource class in rank order, followed by occupancy rows. The
// verdict paragraph rides in the table notes, so the registry's standard
// table formatter prints the whole report.
func AnalysisTable(rep *analysis.Report) Table {
	t := Table{
		Title: fmt.Sprintf("Bottleneck analysis: top-%d of %d resource classes over %.1f us (bucket %.1f us)",
			rep.TopK, len(rep.Resources), float64(rep.WindowNS)/1000, float64(rep.BucketNS)/1000),
		Columns: []string{"rank", "resource", "inst", "busy%", "peak%", "rate%",
			"waits", "wait p50", "wait p99", "wait max", "q p50/max", "busiest instance"},
	}
	for i, rs := range rep.Resources {
		rate := "-"
		if rs.RateFrac > 0 {
			rate = fmt.Sprintf("%.1f", rs.RateFrac*100)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			rs.Label,
			fmt.Sprintf("%d", rs.Instances),
			fmt.Sprintf("%.1f", rs.BusyFrac*100),
			fmt.Sprintf("%.1f", rs.PeakBucketFrac*100),
			rate,
			fmt.Sprintf("%d", rs.WaitCount),
			fmt.Sprintf("%.1f us", float64(rs.WaitP50NS)/1000),
			fmt.Sprintf("%.1f us", float64(rs.WaitP99NS)/1000),
			fmt.Sprintf("%.1f us", float64(rs.WaitMaxNS)/1000),
			fmt.Sprintf("%d/%d", rs.QueueP50, rs.QueueMax),
			rs.Busiest,
		})
	}
	for _, o := range rep.Occupancies {
		t.Rows = append(t.Rows, []string{
			"-",
			o.Label + " (occupancy)",
			fmt.Sprintf("%d", o.Instances),
			fmt.Sprintf("%.1f", o.MeanFrac*100),
			fmt.Sprintf("%.1f", o.PeakFrac*100),
			"-", "-", "-", "-", "-", "-",
			o.Busiest,
		})
	}
	if len(rep.Phases) > 1 {
		for _, ph := range rep.Phases {
			var leader string
			var best float64
			for _, rs := range rep.Resources {
				for _, pr := range rs.PerPhase {
					if pr.Phase == ph.Name && pr.BusyFrac > best {
						best = pr.BusyFrac
						leader = rs.Label
					}
				}
			}
			if leader != "" {
				t.Notes = append(t.Notes, fmt.Sprintf("phase %-10s [%.1f..%.1f us]: busiest %s at %.1f%%",
					ph.Name, float64(ph.StartNS)/1000, float64(ph.EndNS)/1000, leader, best*100))
			}
		}
	}
	t.Notes = append(t.Notes, "verdict: "+rep.Verdict)
	return t
}

// analysisNote renders a one-line verdict note for a sweep table.
func analysisNote(label string, rep *analysis.Report) string {
	return fmt.Sprintf("analysis (%s): %s", label, rep.Verdict)
}

// analysisJSON renders a report as an indented JSON fragment for
// embedding in sweep artifacts (no trailing newline).
func analysisJSON(rep *analysis.Report, indent string) string {
	var b strings.Builder
	rep.WriteJSON(&b, indent) // strings.Builder writes cannot fail
	return b.String()
}
