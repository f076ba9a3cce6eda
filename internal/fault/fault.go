// Package fault is the deterministic fault-injection subsystem: a seeded
// Plan attached to a simulation engine that decides, reproducibly, which
// packets the fabric corrupts, which links and switches are dead at any
// virtual instant, which Ethernet datagrams the daemons lose, and when
// whole nodes crash and come back.
//
// The paper deliberately ships VMMC without CRC-error recovery (§4.2);
// the repro carries the VMMC-2-style reliable link layer to quantify that
// trade-off. A Plan turns the recovery paths from hand-poked corner cases
// into systematically exercisable scenarios: every random decision comes
// from one splitmix64 stream seeded at construction, and the engine runs
// events single-file, so the same seed yields byte-identical runs —
// including the trace and metrics artifacts (see docs/ROBUSTNESS.md).
//
// Consumers:
//
//   - internal/myrinet consults CorruptWire / LinkDown / SwitchDown on
//     every packet injection and hop,
//   - internal/ether consults DropMessage / ExtraDelay per datagram,
//   - internal/vmmc registers crash/restart callbacks and executes the
//     scheduled node failures.
package fault

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Plan is a deterministic fault schedule bound to one engine. The zero
// value is not usable; call NewPlan. A nil *Plan is a valid "no faults"
// plan for every query method.
type Plan struct {
	eng   *sim.Engine
	state uint64 // splitmix64 state

	links    map[int]*linkFaults
	switches map[int]*outages
	ether    etherFaults

	onCrash   func(node int)
	onRestart func(node int)

	// Injection counts, in the engine's metrics registry under "fault/..."
	// so faulted runs account every event in artifacts.
	mCorrupt, mLinkDrops, mSwitchDrops *trace.Counter
	mEtherDrops, mCrashes, mRestarts   *trace.Counter
}

// linkFaults is the fault state of one full-duplex cable, keyed by the NIC
// it attaches.
type linkFaults struct {
	ber       float64 // per-wire-byte corruption probability
	burstTX   int     // corrupt the next k packets injected on this link
	downUntil outages
}

type etherFaults struct {
	loss      float64  // per-datagram drop probability
	jitterMax sim.Time // extra delivery delay drawn uniformly from [0, max)
}

// window is one scheduled outage; until <= from means "forever".
type window struct{ from, until sim.Time }

type outages struct{ list []window }

func (o *outages) add(from, until sim.Time) {
	o.list = append(o.list, window{from: from, until: until})
}

func (o *outages) down(now sim.Time) bool {
	for _, w := range o.list {
		if now >= w.from && (w.until <= w.from || now < w.until) {
			return true
		}
	}
	return false
}

// NewPlan returns an empty fault plan seeded with seed. Two plans with the
// same seed and the same call sequence make identical decisions.
func NewPlan(eng *sim.Engine, seed uint64) *Plan {
	m := eng.Metrics()
	return &Plan{
		eng:          eng,
		state:        seed,
		links:        make(map[int]*linkFaults),
		switches:     make(map[int]*outages),
		mCorrupt:     m.Counter("fault/corruptions"),
		mLinkDrops:   m.Counter("fault/link_drops"),
		mSwitchDrops: m.Counter("fault/switch_drops"),
		mEtherDrops:  m.Counter("fault/ether_drops"),
		mCrashes:     m.Counter("fault/node_crashes"),
		mRestarts:    m.Counter("fault/node_restarts"),
	}
}

// Engine returns the engine the plan is bound to.
func (pl *Plan) Engine() *sim.Engine { return pl.eng }

// next64 advances the splitmix64 stream. Splitmix is used instead of
// math/rand so decision sequences are stable across Go releases.
func (pl *Plan) next64() uint64 {
	pl.state += 0x9E3779B97F4A7C15
	z := pl.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit draws a float64 uniformly from [0, 1).
func (pl *Plan) unit() float64 {
	return float64(pl.next64()>>11) / (1 << 53)
}

func (pl *Plan) link(nic int) *linkFaults {
	lf, ok := pl.links[nic]
	if !ok {
		lf = &linkFaults{}
		pl.links[nic] = lf
	}
	return lf
}

// ---- Plan construction (fabric) ----

// SetLinkBER sets the per-wire-byte bit-error probability of the cable
// attached to NIC nic. Both directions of the link are affected: packets
// the NIC injects and packets delivered to it. A packet of n wire bytes is
// corrupted with probability 1-(1-ber)^n.
func (pl *Plan) SetLinkBER(nic int, ber float64) {
	if ber < 0 {
		ber = 0
	}
	pl.link(nic).ber = ber
}

// CorruptNextOn corrupts the next k packets injected on NIC nic's link.
func (pl *Plan) CorruptNextOn(nic, k int) { pl.link(nic).burstTX += k }

// LinkOutage schedules the cable attached to NIC nic to be dead during
// [from, until). until <= from means the link never comes back. Packets
// injected on or routed to a dead link drop and are counted.
func (pl *Plan) LinkOutage(nic int, from, until sim.Time) {
	pl.link(nic).downUntil.add(from, until)
	pl.markTransitions("link_outage", from, until)
}

// SwitchOutage schedules switch sw to be dead during [from, until).
// Packets routed through a dead switch drop and are counted.
func (pl *Plan) SwitchOutage(sw int, from, until sim.Time) {
	o, ok := pl.switches[sw]
	if !ok {
		o = &outages{}
		pl.switches[sw] = o
	}
	o.add(from, until)
	pl.markTransitions("switch_outage", from, until)
}

// markTransitions drops trace instants at the outage edges so repair shows
// up on the timeline.
func (pl *Plan) markTransitions(kind string, from, until sim.Time) {
	if from >= pl.eng.Now() {
		pl.eng.At(from, func() { pl.eng.TraceInstant("fault", "fault", kind+"_begin") })
	}
	if until > from && until >= pl.eng.Now() {
		pl.eng.At(until, func() { pl.eng.TraceInstant("fault", "fault", kind+"_repair") })
	}
}

// ---- Plan construction (Ethernet side channel) ----

// SetEtherLoss sets the per-datagram loss probability of the daemons'
// Ethernet side channel.
func (pl *Plan) SetEtherLoss(p float64) {
	if p < 0 {
		p = 0
	}
	pl.ether.loss = p
}

// SetEtherJitter adds a uniformly distributed extra delivery delay in
// [0, max) to every Ethernet datagram that is not dropped.
func (pl *Plan) SetEtherJitter(max sim.Time) { pl.ether.jitterMax = max }

// ---- Plan construction (nodes) ----

// OnNodeCrash registers the callback invoked when a scheduled crash fires.
// The cluster wires this to its crash teardown.
func (pl *Plan) OnNodeCrash(fn func(node int)) { pl.onCrash = fn }

// OnNodeRestart registers the callback invoked when a scheduled restart
// fires.
func (pl *Plan) OnNodeRestart(fn func(node int)) { pl.onRestart = fn }

// ScheduleCrash kills node at virtual time at. The registered crash
// callback runs in event context.
func (pl *Plan) ScheduleCrash(node int, at sim.Time) {
	pl.eng.At(at, func() {
		pl.mCrashes.Add(1)
		pl.eng.TraceInstant("fault", "fault", fmt.Sprintf("node%d_crash", node))
		if pl.onCrash != nil {
			pl.onCrash(node)
		}
	})
}

// ScheduleRestart brings node back at virtual time at.
func (pl *Plan) ScheduleRestart(node int, at sim.Time) {
	pl.eng.At(at, func() {
		pl.mRestarts.Add(1)
		pl.eng.TraceInstant("fault", "fault", fmt.Sprintf("node%d_restart", node))
		if pl.onRestart != nil {
			pl.onRestart(node)
		}
	})
}

// ---- Queries from the fabric ----

// CorruptWire decides whether a packet of wireBytes crossing NIC nic's
// link is corrupted. end names the consulting cable end: "tx" burst
// injections only apply at the injecting NIC. Nil plans never corrupt.
func (pl *Plan) CorruptWire(nic, wireBytes int, tx bool) bool {
	if pl == nil {
		return false
	}
	lf, ok := pl.links[nic]
	if !ok {
		return false
	}
	if tx && lf.burstTX > 0 {
		lf.burstTX--
		pl.noteCorruption()
		return true
	}
	if lf.ber > 0 {
		// Per-packet corruption probability from the per-byte rate.
		p := 1 - math.Pow(1-lf.ber, float64(wireBytes))
		if pl.unit() < p {
			pl.noteCorruption()
			return true
		}
	}
	return false
}

func (pl *Plan) noteCorruption() {
	pl.mCorrupt.Add(1)
	pl.eng.TraceInstant("fault", "fault", "corrupt_packet")
}

// LinkDown reports whether NIC nic's cable is dead right now.
func (pl *Plan) LinkDown(nic int) bool {
	if pl == nil {
		return false
	}
	lf, ok := pl.links[nic]
	return ok && lf.downUntil.down(pl.eng.Now())
}

// SwitchDown reports whether switch sw is dead right now.
func (pl *Plan) SwitchDown(sw int) bool {
	if pl == nil {
		return false
	}
	o, ok := pl.switches[sw]
	return ok && o.down(pl.eng.Now())
}

// NoteLinkDrop counts a packet killed by a dead link.
func (pl *Plan) NoteLinkDrop() {
	if pl == nil {
		return
	}
	pl.mLinkDrops.Add(1)
	pl.eng.TraceInstant("fault", "fault", "link_drop")
}

// NoteSwitchDrop counts a packet killed by a dead switch.
func (pl *Plan) NoteSwitchDrop() {
	if pl == nil {
		return
	}
	pl.mSwitchDrops.Add(1)
	pl.eng.TraceInstant("fault", "fault", "switch_drop")
}

// ---- Queries from the Ethernet side channel ----

// DropMessage decides whether one Ethernet datagram is lost.
func (pl *Plan) DropMessage() bool {
	if pl == nil || pl.ether.loss <= 0 {
		return false
	}
	if pl.unit() < pl.ether.loss {
		pl.mEtherDrops.Add(1)
		pl.eng.TraceInstant("fault", "fault", "ether_drop")
		return true
	}
	return false
}

// ExtraDelay draws the extra delivery delay of one Ethernet datagram.
func (pl *Plan) ExtraDelay() sim.Time {
	if pl == nil || pl.ether.jitterMax <= 0 {
		return 0
	}
	return sim.Time(pl.unit() * float64(pl.ether.jitterMax))
}
