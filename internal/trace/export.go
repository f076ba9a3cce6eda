package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteChromeTrace writes events in the Chrome trace_event JSON object
// format, loadable in chrome://tracing and Perfetto. Each distinct
// Component becomes one "process" (pid assigned in first-appearance order,
// named with a process_name metadata record); span begin/end and instants
// land on that process's single thread; counter samples render as counter
// tracks. Timestamps convert from virtual nanoseconds to the format's
// microseconds with nanosecond resolution preserved (three decimals).
//
// The output is byte-for-byte deterministic for a given event sequence:
// identical runs of a deterministic simulation yield identical files.
func WriteChromeTrace(w io.Writer, events []Event, dropped int64) error {
	bw := bufio.NewWriter(w)

	pids := make(map[string]int)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedEvents\":%d},\"traceEvents\":[", dropped)
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}
	for _, ev := range events {
		pid, ok := pids[ev.Component]
		if !ok {
			pid = len(pids) + 1
			pids[ev.Component] = pid
			comma()
			fmt.Fprintf(bw, "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}",
				pid, JSONString(ev.Component))
		}
		comma()
		fmt.Fprintf(bw, "\n{\"name\":%s,\"cat\":%s,\"ph\":\"%c\",\"ts\":%s,\"pid\":%d,\"tid\":0",
			JSONString(ev.Name), JSONString(ev.Category), ev.Ph, tsMicros(ev.T), pid)
		switch ev.Ph {
		case PhaseCounter:
			fmt.Fprintf(bw, ",\"args\":{\"value\":%s}", JSONFloat(ev.Value))
		case PhaseInstant:
			bw.WriteString(",\"s\":\"p\"") // process-scoped instant
		}
		bw.WriteByte('}')
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteJSON writes the snapshot as deterministic JSON: sections and entries
// appear in sorted-name order with stable number formatting.
func (s Snapshot) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"now_ns\": %d,\n", s.NowNS)
	bw.WriteString("  \"counters\": {")
	for i, c := range s.Counters {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n    %s: %d", JSONString(c.Name), c.Value)
	}
	bw.WriteString("\n  },\n  \"gauges\": {")
	for i, g := range s.Gauges {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n    %s: {\"value\": %s, \"high\": %s}",
			JSONString(g.Name), JSONFloat(g.Value), JSONFloat(g.High))
	}
	bw.WriteString("\n  },\n  \"utilizations\": {")
	for i, u := range s.Utilizations {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n    %s: {\"busy_fraction\": %s, \"busy_ns\": %d, \"grants\": %d}",
			JSONString(u.Name), JSONFloat(u.Value), u.BusyNS, u.Grants)
	}
	bw.WriteString("\n  }\n}\n")
	return bw.Flush()
}

// tsMicros renders virtual ns as trace_event microseconds, keeping
// nanosecond resolution exactly (no float rounding).
func tsMicros(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// JSONString escapes s as a JSON string literal: the one string
// formatter of the deterministic JSON writers (these exporters and the
// analysis report).
func JSONString(s string) string {
	b, _ := json.Marshal(s) // marshaling a string cannot fail
	return string(b)
}

// JSONFloat formats f compactly and deterministically: an integral value
// as an integer, any other to nine significant digits. The analysis report
// formats its numbers through it too.
func JSONFloat(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', 9, 64)
}
