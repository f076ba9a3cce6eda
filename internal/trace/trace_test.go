package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCollectorDisabledByDefault(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{T: 1, Ph: PhaseInstant, Component: "x", Name: "e"})
	if c.Enabled() || c.Len() != 0 {
		t.Fatalf("disabled collector recorded events: len=%d", c.Len())
	}
}

func TestCollectorRingOrderAndWrap(t *testing.T) {
	c := NewCollector()
	c.Enable(4)
	for i := 0; i < 6; i++ {
		c.Emit(Event{T: int64(i), Ph: PhaseInstant, Component: "x", Name: "e"})
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 2); ev.T != want {
			t.Errorf("event %d at T=%d, want %d", i, ev.T, want)
		}
	}
	if c.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", c.Dropped())
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	cnt := r.Counter("a/hits")
	cnt.Add(3)
	r.Counter("a/hits").Add(2) // same instance by name
	if got := cnt.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("a/depth")
	g.Set(4)
	g.Set(9)
	g.Set(2)
	if g.Value() != 2 || g.High() != 9 {
		t.Errorf("gauge value/high = %v/%v, want 2/9", g.Value(), g.High())
	}
}

func TestUtilizationIntegration(t *testing.T) {
	u := &Utilization{}
	u.BusyAt(100)
	u.IdleAt(300) // 200 busy
	u.BusyAt(600) // busy through snapshot at 1000: +400
	if got := u.Value(1000); got != 0.6 {
		t.Errorf("utilization = %v, want 0.6", got)
	}
	if got := u.BusyNS(1000); got != 600 {
		t.Errorf("busyNS = %d, want 600", got)
	}
	if u.Grants() != 2 {
		t.Errorf("grants = %d, want 2", u.Grants())
	}
	// Redundant transitions are no-ops.
	u.BusyAt(1100)
	u.BusyAt(1200)
	u.IdleAt(1300)
	u.IdleAt(1400)
	if got := u.BusyNS(1400); got != 900 {
		t.Errorf("busyNS after redundant transitions = %d, want 900", got)
	}
}

func TestSnapshotSortedAndLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("z/last").Add(1)
	r.Counter("a/first").Add(2)
	r.Gauge("m/g").Set(7)
	r.Utilization("k/u").BusyAt(0)
	s := r.Snapshot(1000)
	if s.Counters[0].Name != "a/first" || s.Counters[1].Name != "z/last" {
		t.Errorf("counters not sorted: %+v", s.Counters)
	}
	if v, ok := s.Counter("z/last"); !ok || v != 1 {
		t.Errorf("Counter lookup = %d,%v", v, ok)
	}
	if g, ok := s.Gauge("m/g"); !ok || g.High != 7 {
		t.Errorf("Gauge lookup = %+v,%v", g, ok)
	}
	if u, ok := s.Utilization("k/u"); !ok || u.Value != 1 {
		t.Errorf("Utilization lookup = %+v,%v", u, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Error("lookup of missing counter succeeded")
	}
}

// TestChromeExportGolden pins the exact exporter output for a small fixed
// event sequence. If the format changes intentionally, update the golden
// string — and re-check the file still loads in chrome://tracing.
func TestChromeExportGolden(t *testing.T) {
	events := []Event{
		{T: 0, Ph: PhaseBegin, Component: "dma:lanai0:host", Category: "dma", Name: "transfer"},
		{T: 1500, Ph: PhaseEnd, Component: "dma:lanai0:host", Category: "dma", Name: "transfer"},
		{T: 2000, Ph: PhaseInstant, Component: "node0/lcp", Category: "lcp", Name: "tlb-miss"},
		{T: 2500, Ph: PhaseCounter, Component: "node0/lcp", Category: "lcp", Name: "sendq", Value: 3},
		{T: 3001, Ph: PhaseCounter, Component: "node0/lcp", Category: "lcp", Name: "sendq", Value: 2.5},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 7); err != nil {
		t.Fatal(err)
	}
	golden := `{"displayTimeUnit":"ns","otherData":{"droppedEvents":7},"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"dma:lanai0:host"}},
{"name":"transfer","cat":"dma","ph":"B","ts":0.000,"pid":1,"tid":0},
{"name":"transfer","cat":"dma","ph":"E","ts":1.500,"pid":1,"tid":0},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"node0/lcp"}},
{"name":"tlb-miss","cat":"lcp","ph":"i","ts":2.000,"pid":2,"tid":0,"s":"p"},
{"name":"sendq","cat":"lcp","ph":"C","ts":2.500,"pid":2,"tid":0,"args":{"value":3}},
{"name":"sendq","cat":"lcp","ph":"C","ts":3.001,"pid":2,"tid":0,"args":{"value":2.5}}
]}
`
	if got := buf.String(); got != golden {
		t.Errorf("exporter output mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	events := []Event{
		{T: 10, Ph: PhaseBegin, Component: `a"b\c`, Category: "net", Name: "x"},
		{T: 20, Ph: PhaseEnd, Component: `a"b\c`, Category: "net", Name: "x"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	assertValidJSON(t, buf.Bytes())
}

func TestSnapshotJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("node0/tlb_misses").Add(2)
	r.Counter("node0/tlb_hits").Add(40)
	r.Gauge("lanai0/sram_used_bytes").Set(1024)
	u := r.Utilization("dma:lanai0:host/utilization")
	u.BusyAt(0)
	u.IdleAt(500)
	var buf bytes.Buffer
	if err := r.Snapshot(2000).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `{
  "now_ns": 2000,
  "counters": {
    "node0/tlb_hits": 40,
    "node0/tlb_misses": 2
  },
  "gauges": {
    "lanai0/sram_used_bytes": {"value": 1024, "high": 1024}
  },
  "utilizations": {
    "dma:lanai0:host/utilization": {"busy_fraction": 0.25, "busy_ns": 500, "grants": 1}
  }
}
`
	if got := buf.String(); got != golden {
		t.Errorf("snapshot JSON mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}
	assertValidJSON(t, buf.Bytes())
}

func assertValidJSON(t *testing.T, b []byte) {
	t.Helper()
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b)
	}
}

func TestTSMicros(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"},
		{1234567, "1234.567"}, {-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := tsMicros(c.ns); got != c.want {
			t.Errorf("tsMicros(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestJSONFloat(t *testing.T) {
	if got := JSONFloat(3); got != "3" {
		t.Errorf("JSONFloat(3) = %q", got)
	}
	if got := JSONFloat(0.25); got != "0.25" {
		t.Errorf("JSONFloat(0.25) = %q", got)
	}
	if s := JSONFloat(1.0 / 3.0); !strings.HasPrefix(s, "0.333333") {
		t.Errorf("JSONFloat(1/3) = %q", s)
	}
}
