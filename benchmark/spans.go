package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/sim"
)

// span is one benchmark-side interval around a call into a layer's public
// API, stamped on both clocks. Spans of one operation share Op; Parent is
// the ID of the enclosing span (0 for an operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	VStart int64  `json:"virt_start_ns"`
	VEnd   int64  `json:"virt_end_ns"`
	HStart int64  `json:"host_start_ns"`
	HEnd   int64  `json:"host_end_ns"`
}

// maxSpans bounds the in-memory span buffer; spans past it are counted in
// dropped (and in trace.dropped) instead of being recorded.
const maxSpans = 1 << 20

// recorder keeps the traced run's spans in memory until the run ends. A
// nil recorder is the untraced run: begin and end do nothing, so workload
// code calls them unconditionally.
type recorder struct {
	t0      time.Time
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID, or 0 when nothing was recorded.
func (r *recorder) begin(p *sim.Proc, parent int, op int64, layer, name string) int {
	if r == nil {
		return 0
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		VStart: int64(p.Now()), HStart: int64(time.Since(r.t0))})
	return id
}

// end closes the span begin returned id for.
func (r *recorder) end(p *sim.Proc, id int) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.VEnd = int64(p.Now())
	s.HEnd = int64(time.Since(r.t0))
}

// write stores the spans as one JSON array at path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(r.spans)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace-out %s: %w", path, err)
	}
	return nil
}

// selfVirtByLayer returns, per layer, the summed virtual self time of its
// spans: each span's duration minus the part of that interval its child
// spans cover (overlapping children are counted once). Host-clock spans
// around a blocking call include whatever the engine ran meanwhile, so
// only the virtual clock is subtracted this way.
func selfVirtByLayer(spans []span) map[string]int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].VStart < spans[kids[b]].VStart })
		covered, edge := int64(0), s.VStart
		for _, k := range kids {
			lo, hi := spans[k].VStart, spans[k].VEnd
			if lo < edge {
				lo = edge
			}
			if hi > s.VEnd {
				hi = s.VEnd
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Layer] += s.VEnd - s.VStart - covered
	}
	return self
}

// spanDurations returns the virtual durations of every span with the given
// layer and name.
func spanDurations(spans []span, layer, name string) []sim.Time {
	var out []sim.Time
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, sim.Time(s.VEnd-s.VStart))
		}
	}
	return out
}
