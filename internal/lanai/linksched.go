package lanai

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Per-class link bandwidth scheduling. The paper's NIC injects packets
// strictly in posting order, so one process's bulk transfer can occupy
// the outgoing link for milliseconds while a latency-sensitive peer's
// packets queue behind it. The scheduler bounds that interference with a
// deterministic token bucket per traffic class: each class owns a
// credit of burst bytes that refills at a configured rate. Nothing
// sleeps inside the scheduler: the LCP asks EligibleAt before it picks a
// class's work, skips a class still in deficit (Defer opens the episode
// that accounts for the wait) and commits each injection with TryCharge,
// which never blocks and refuses a class in deficit. Unconfigured
// classes — including class 0, the single-tenant default — are never
// throttled, so the scheduler is invisible until a tenant manager opts a
// class in.
//
// The implementation is a virtual-time pacer rather than a literal
// token count: nextAt is the instant the class's credit is fully
// drained, clamped to lag the present by at most the burst duration.
// Charging n bytes advances nextAt by n at the class rate, and the class
// is eligible again once the present reaches nextAt. Because all state
// updates happen atomically at charge time under the single-threaded
// event engine, the pacer is exactly deterministic.
type LinkScheduler struct {
	eng     *sim.Engine
	comp    string
	classes map[int]*linkClass

	// Deferral episodes and the total virtual time they lasted, over all
	// classes: the "lanai<id>/qos_throttles" and "/qos_throttled_ns"
	// metrics.
	mThrottles, mThrottleNS *trace.Counter
}

// linkClass is one class's pacing state.
type linkClass struct {
	bytesPerSec float64
	// burst is the credit depth expressed as time at the class rate:
	// nextAt may lag the present by at most this much, so an idle class
	// accumulates exactly burstBytes of instant sendability.
	burst  sim.Time
	nextAt sim.Time

	// Per-class attribution, so a tenant manager can report which class
	// the pacer actually held back and for how long.
	throttles   int64
	throttledNS sim.Time

	// An open deferral episode: the LCP declared the class not-ready at
	// deferredAt and is serving other work (or parked) until nextAt. The
	// episode closes — folding its duration into throttledNS — at the
	// class's next committed charge.
	deferred   bool
	deferredAt sim.Time
}

// ClassStats reports how often and how long sends in the given class were
// delayed by the pacer. Unknown classes report zeros.
func (ls *LinkScheduler) ClassStats(class int) (throttles int64, throttledNS sim.Time) {
	if lc := ls.classes[class]; lc != nil {
		return lc.throttles, lc.throttledNS
	}
	return 0, 0
}

// ConfigureLinkClass installs (or updates) a bandwidth budget for one
// traffic class on this board's outgoing link: sends in the class are
// paced to bytesPerSec with an instant-burst allowance of burstBytes.
// A rate <= 0 removes the class's budget, returning it to unlimited.
func (b *Board) ConfigureLinkClass(class int, bytesPerSec float64, burstBytes int) {
	if b.linksched == nil {
		comp := fmt.Sprintf("lanai%d", b.NIC.ID)
		m := b.Eng.Metrics()
		b.linksched = &LinkScheduler{
			eng:         b.Eng,
			comp:        comp,
			classes:     make(map[int]*linkClass),
			mThrottles:  m.Counter(comp + "/qos_throttles"),
			mThrottleNS: m.Counter(comp + "/qos_throttled_ns"),
		}
	}
	if bytesPerSec <= 0 {
		delete(b.linksched.classes, class)
		return
	}
	burst := sim.Time(float64(burstBytes) / bytesPerSec * float64(sim.Second))
	b.linksched.classes[class] = &linkClass{
		bytesPerSec: bytesPerSec,
		burst:       burst,
		nextAt:      b.Eng.Now() - burst, // start with a full credit
	}
}

// LinkScheduler returns the board's per-class pacer, nil until a class
// is configured.
func (b *Board) LinkScheduler() *LinkScheduler { return b.linksched }

// EligibleAt reports whether the class carries a bandwidth budget and,
// if so, the earliest virtual time an injection in it may commit without
// overdrawing. Unbudgeted classes are always eligible. The query is
// pure: no attribution, no state change.
func (ls *LinkScheduler) EligibleAt(class int) (at sim.Time, limited bool) {
	lc := ls.classes[class]
	if lc == nil {
		return 0, false
	}
	return lc.nextAt, true
}

// Defer opens a deferral episode for a class the caller just declared
// not-ready: the skip is counted as one throttle, and the time until the
// class's next committed charge will be attributed as throttled time.
// Calling Defer again while an episode is open is a no-op, as is calling
// it for an unbudgeted or currently-eligible class.
func (ls *LinkScheduler) Defer(class int) {
	lc := ls.classes[class]
	if lc == nil || lc.deferred {
		return
	}
	now := ls.eng.Now()
	if lc.nextAt <= now {
		return
	}
	lc.deferred = true
	lc.deferredAt = now
	ls.mThrottles.Add(1)
	lc.throttles++
}

// TryCharge commits an n-byte injection in the given class if the class
// is eligible now, advancing its virtual time without ever sleeping; it
// reports false — charging nothing — when the class is still in deficit.
// A successful charge closes any open deferral episode, attributing the
// elapsed deferral to the class as throttled time.
func (ls *LinkScheduler) TryCharge(class, n int) bool {
	lc := ls.classes[class]
	if lc == nil || n <= 0 {
		return true
	}
	now := ls.eng.Now()
	if lc.nextAt > now {
		return false
	}
	if floor := now - lc.burst; lc.nextAt < floor {
		lc.nextAt = floor
	}
	lc.nextAt += sim.Time(float64(n) / lc.bytesPerSec * float64(sim.Second))
	if lc.deferred {
		d := now - lc.deferredAt
		lc.deferred = false
		lc.throttledNS += d
		ls.mThrottleNS.Add(int64(d))
		if d > 0 && ls.eng.Trace().Enabled() {
			ls.eng.TraceCounter(ls.comp, "qos", "qos_throttle_ns", float64(d))
		}
	}
	return true
}
