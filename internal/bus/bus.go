// Package bus models I/O buses (PCI, EISA) and the DMA engines that master
// them. A Bus is a unit-capacity, FIFO-arbitrated resource; every
// programmed-I/O access and every DMA burst holds it for its transfer time,
// so contention between the CPU's MMIO traffic and DMA engines — and
// between concurrently active DMA engines — emerges naturally.
package bus

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Bus is a shared I/O bus with FIFO arbitration.
type Bus struct {
	eng  *sim.Engine
	name string
	res  *sim.Resource
}

// New returns an idle bus. Its occupancy is tracked in the engine's
// metrics registry as "bus:<name>/utilization".
func New(eng *sim.Engine, name string) *Bus {
	b := &Bus{eng: eng, name: name, res: sim.NewResource(eng, "bus:"+name)}
	b.res.Observe(eng.Metrics().Utilization("bus:" + name + "/utilization"))
	return b
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Use occupies the bus for d: arbitration (FIFO queueing behind current
// traffic) plus the transfer time itself.
func (b *Bus) Use(p *sim.Proc, d sim.Time) {
	b.res.Use(p, d)
}

// Utilization reports the fraction of virtual time the bus has been busy.
func (b *Bus) Utilization() float64 { return b.res.Utilization() }

// DMAEngine is one DMA engine: a serializing resource whose transfers
// occupy both the engine and (for bus-mastering engines) the bus.
//
// The three LANai engines (host<->SRAM over PCI, SRAM->net, net->SRAM) are
// each one DMAEngine; the two network engines pass a nil bus because the
// link is modeled separately.
type DMAEngine struct {
	eng     *sim.Engine
	comp    string // trace component, "dma:<name>"
	profile hw.DMAProfile
	res     *sim.Resource
	bus     *Bus // nil if the engine does not master a shared bus

	// Direction-turnaround modeling: switching between distinct cost
	// profiles (PCI master reads vs writes) costs extra bus time.
	turnaround  sim.Time
	lastProfile hw.DMAProfile
	haveLast    bool

	idle []*transfer // records of finished Starts, for reuse

	// Observability: occupancy in the metrics registry plus per-transfer
	// counters; spans are emitted into the engine's trace collector.
	mBytes       *trace.Counter
	mTransfers   *trace.Counter
	mTurnarounds *trace.Counter
}

// SetTurnaround sets the penalty charged when consecutive transfers use
// different profiles (direction changes on the bus).
func (d *DMAEngine) SetTurnaround(t sim.Time) { d.turnaround = t }

// NewDMAEngine returns an idle engine. bus may be nil. Engine occupancy is
// tracked as "dma:<name>/utilization" in the engine's metrics registry,
// alongside "dma:<name>/bytes", "/transfers" and "/turnarounds" counters;
// every transfer also emits a trace span on component "dma:<name>".
func NewDMAEngine(eng *sim.Engine, name string, profile hw.DMAProfile, b *Bus) *DMAEngine {
	comp := "dma:" + name
	d := &DMAEngine{
		eng:     eng,
		comp:    comp,
		profile: profile,
		res:     sim.NewResource(eng, comp),
		bus:     b,
	}
	m := eng.Metrics()
	d.res.Observe(m.Utilization(comp + "/utilization"))
	d.mBytes = m.Counter(comp + "/bytes")
	d.mTransfers = m.Counter(comp + "/transfers")
	d.mTurnarounds = m.Counter(comp + "/turnarounds")
	return d
}

// Profile returns the engine's cost profile.
func (d *DMAEngine) Profile() hw.DMAProfile { return d.profile }

// Transfer charges p for moving n bytes through the engine at the engine's
// own cost profile: it waits for the engine to be free, then for the bus
// (if any), and holds both for the profile's cost. The caller performs the
// actual byte copy around this call; Transfer accounts only for time.
func (d *DMAEngine) Transfer(p *sim.Proc, n int) { d.TransferWith(p, n, d.profile) }

// TransferWith is Transfer with an explicit cost profile, for engines whose
// cost depends on direction — the LANai's single host-DMA engine masters
// PCI reads (host to SRAM, slower) and PCI writes (SRAM to host) with
// different profiles.
func (d *DMAEngine) TransferWith(p *sim.Proc, n int, prof hw.DMAProfile) {
	d.res.Acquire(p)
	// Deferred so a kill-unwind mid-transfer frees the engine.
	defer d.res.Release(p)
	cost := d.begin(n, prof)
	if d.bus != nil {
		d.bus.Use(p, cost)
	} else {
		p.Sleep(cost)
	}
	d.end(n)
}

// begin opens a transfer on the engine its caller has just been granted —
// the direction-turnaround charge, the trace span — and returns the time
// the bus (or, with none, the engine alone) is held for it.
func (d *DMAEngine) begin(n int, prof hw.DMAProfile) sim.Time {
	cost := prof.Cost(n)
	if d.haveLast && d.lastProfile != prof && d.turnaround > 0 {
		cost += d.turnaround
		d.mTurnarounds.Add(1)
		d.eng.TraceInstant(d.comp, "dma", "turnaround")
	}
	d.lastProfile, d.haveLast = prof, true
	d.eng.TraceBegin(d.comp, "dma", "transfer")
	return cost
}

// end closes the transfer's span and counts it, just before the engine is
// released.
func (d *DMAEngine) end(n int) {
	d.eng.TraceEnd(d.comp, "dma", "transfer")
	d.mTransfers.Add(1)
	d.mBytes.Add(int64(n))
}

// Start is TransferWith for a caller with no process to block: the
// transfer waits for the engine, then the bus, holds both for the cost and
// calls done, all in event context. It queues where a process calling
// TransferWith at this instant would, is charged the same turnaround,
// leaves the same span and counters, and every step that was an event for
// the process — a contended grant, the hold — is one event here, so the
// two forms can be mixed on one engine without moving anything in virtual
// time. label names the transfer as a holder of the engine and the bus
// (sim.Resource.AcquireFn). A transfer in flight cannot be killed; it ends
// when its time is up.
func (d *DMAEngine) Start(label string, n int, prof hw.DMAProfile, done func()) {
	var t *transfer
	if k := len(d.idle); k > 0 {
		t, d.idle = d.idle[k-1], d.idle[:k-1]
	} else {
		t = d.newTransfer()
	}
	t.label, t.n, t.prof, t.done = label, n, prof, done
	d.res.AcquireFn(label, t.onEngine)
}

// transfer is one Start in flight. Its three steps are bound to the record
// once and the record goes back on DMAEngine.idle when the transfer ends,
// so steady-state transfers allocate nothing.
type transfer struct {
	label string
	n     int
	prof  hw.DMAProfile
	cost  sim.Time
	done  func()

	onEngine, onBus, onEnd func()
}

func (d *DMAEngine) newTransfer() *transfer {
	t := new(transfer)
	t.onEngine = func() {
		t.cost = d.begin(t.n, t.prof)
		if d.bus != nil {
			d.bus.res.AcquireFn(t.label, t.onBus)
		} else {
			t.onBus()
		}
	}
	t.onBus = func() { d.eng.Post(t.cost, t.onEnd) }
	t.onEnd = func() {
		if d.bus != nil {
			d.bus.res.ReleaseFn(t.label)
		}
		d.end(t.n)
		d.res.ReleaseFn(t.label)
		done := t.done
		t.done = nil
		d.idle = append(d.idle, t)
		done()
	}
	return t
}

// Busy reports whether a transfer is in progress.
func (d *DMAEngine) Busy() bool { return d.res.Busy() }
