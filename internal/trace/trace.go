// Package trace is the structured observability layer: typed trace events
// over virtual time plus a metrics registry (counters, gauges,
// virtual-time-weighted utilizations). The simulation engine owns one
// Collector and one Registry; every layer of the platform — buses, DMA
// engines, the LANai board, the Myrinet fabric, the VMMC LCP and driver —
// emits into them.
//
// Two properties are deliberate:
//
//   - Timestamps are virtual nanoseconds, never wall clock, so two runs of
//     the same model produce byte-identical trace and metrics output.
//   - Emitting is cheap when tracing is disabled (one branch), and counters
//     are always on: they are plain int64 adds with no allocation.
//
// The package is dependency-free (it cannot import internal/sim, which
// imports it); virtual time crosses the boundary as int64 nanoseconds.
package trace

// Phase classifies a trace event, mirroring the Chrome trace_event phases
// the exporter emits.
type Phase byte

// Event phases.
const (
	// PhaseBegin opens a duration span; it pairs with the next PhaseEnd of
	// the same component and name.
	PhaseBegin Phase = 'B'
	// PhaseEnd closes the most recent PhaseBegin of the same component and
	// name.
	PhaseEnd Phase = 'E'
	// PhaseInstant marks a point event (a drop, an interrupt, a mode
	// switch).
	PhaseInstant Phase = 'i'
	// PhaseCounter samples a numeric value (queue depth, bytes in flight).
	PhaseCounter Phase = 'C'
)

// Event is one structured trace record stamped with virtual time.
type Event struct {
	// T is the virtual timestamp in nanoseconds.
	T int64
	// Ph is the event phase (span begin/end, instant, counter sample).
	Ph Phase
	// Component is the emitting hardware or software element, e.g.
	// "lanai0/hostdma" or "node1/lcp". The exporter groups events by
	// component (one Chrome "process" per component).
	Component string
	// Category tags the event class ("dma", "net", "lcp", "irq", ...) for
	// filtering in the trace viewer.
	Category string
	// Name is the span or counter name.
	Name string
	// Value is the sampled value for Counter events, unused otherwise.
	Value float64
}

// Sink consumes trace events as they are emitted, in virtual-time order.
// Subscribing a sink turns emission on even when the ring buffer is not
// armed, so streaming consumers (the bottleneck analyzer) see every event
// without paying the ring's memory. Consume runs synchronously on the
// emitting goroutine; implementations must not call back into the
// collector.
type Sink interface {
	Consume(ev Event)
}

// Collector accumulates events in a fixed-capacity ring buffer and fans
// them out to subscribed streaming sinks. The zero value is a valid,
// disabled collector; Enable arms the ring, Subscribe attaches a sink —
// either is enough to make Emit record. When the ring fills, the oldest
// events are overwritten and counted as dropped — the tail of a run is
// usually the interesting part. Sinks see every event regardless of ring
// wraparound.
type Collector struct {
	enabled bool
	buf     []Event
	head    int // index of the oldest event
	n       int // live events in buf
	dropped int64
	sinks   []Sink
}

// DefaultCapacity is the ring size Enable uses when given a non-positive
// capacity: 1 Mi events, enough to hold every event of the paper's largest
// experiment without drops.
const DefaultCapacity = 1 << 20

// NewCollector returns a disabled collector; call Enable to arm it.
func NewCollector() *Collector { return &Collector{} }

// Enabled reports whether Emit records events — true when the ring is
// armed or at least one sink is subscribed. Instrumentation sites with
// nontrivial argument construction should check this first.
func (c *Collector) Enabled() bool { return c.enabled || len(c.sinks) > 0 }

// Enable arms the collector with a ring of the given capacity (events).
// Non-positive capacity selects DefaultCapacity. Enabling an armed
// collector resizes and clears it.
func (c *Collector) Enable(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c.buf = make([]Event, capacity)
	c.head, c.n, c.dropped = 0, 0, 0
	c.enabled = true
}

// Subscribe attaches a streaming sink. Every event emitted from now on is
// forwarded to it, in emission order, before being buffered in the ring.
func (c *Collector) Subscribe(s Sink) {
	if s == nil {
		return
	}
	c.sinks = append(c.sinks, s)
}

// Unsubscribe detaches a previously subscribed sink. Detaching a sink
// that was never subscribed is a no-op.
func (c *Collector) Unsubscribe(s Sink) {
	for i, have := range c.sinks {
		if have == s {
			c.sinks = append(c.sinks[:i], c.sinks[i+1:]...)
			return
		}
	}
}

// Emit records ev. It is a no-op on a disabled collector with no sinks.
func (c *Collector) Emit(ev Event) {
	for _, s := range c.sinks {
		s.Consume(ev)
	}
	if !c.enabled {
		return
	}
	if c.n == len(c.buf) {
		c.buf[c.head] = ev
		c.head = (c.head + 1) % len(c.buf)
		c.dropped++
		return
	}
	c.buf[(c.head+c.n)%len(c.buf)] = ev
	c.n++
}

// Len reports the number of buffered events.
func (c *Collector) Len() int { return c.n }

// Dropped reports how many events were overwritten by ring wraparound.
func (c *Collector) Dropped() int64 { return c.dropped }

// Events returns the buffered events oldest-first. The slice is freshly
// allocated; the collector keeps recording.
func (c *Collector) Events() []Event {
	out := make([]Event, c.n)
	for i := 0; i < c.n; i++ {
		out[i] = c.buf[(c.head+i)%len(c.buf)]
	}
	return out
}
