package sim

import (
	"fmt"
	"math"
)

// Eliding polls.
//
// A spin on a cache-resident word costs the real machine nothing between
// the moments the word changes; PollEvery charges the simulator one heap
// event per 0.1 us sample regardless. PollUntil keeps the same sampling
// grid but evaluates only the samples that could observe something new.
//
// The argument: a predicate that is a pure function of some state returns
// what it returned at this poller's previous false sample unless that
// state was written in between. Every poller therefore names a watch — a
// version counter owned by the state its predicate reads, bumped by every
// store into it — and remembers the version it last saw; a sample whose
// version is still current is skipped arithmetically. A poller that cannot
// name its inputs watches the engine's own counter, which moves with every
// dispatched event: model state changes only while the engine dispatches
// (a process runs only as the tail of the dispatch that resumed it).
//
// Exactness: pollers live outside the event heap but keep a (time, seq)
// key in the same order space. A skipped sample consumes its place in that
// order exactly as PollEvery's re-armed event would have: it draws a fresh
// seq, after everything already scheduled and before everything scheduled
// later. Nothing is scheduled while samples are being skipped, so all that
// has to be right is the order of the fresh seqs among the pollers that
// land on the same tick — and under PollEvery that order is fixed by when
// each one's previous sample ran: one interval before the tick, so the
// longer interval first, and pollers of equal interval (which then share a
// phase) in the order they held on that previous tick. Engine.pollers is
// kept in exactly this order, so one pass over it (settle) moves every
// up-to-date poller past everything that cannot dispatch, whatever the
// number of pollers parked. Resume tick and same-tick order match
// PollEvery's; poll_test.go holds the two against each other.

// parked is one process parked in PollUntil: its place in the order (the
// next sample time and the seq that breaks ties against events and other
// pollers), its grid, and what it watches. Everything the pass reads is
// inline; it never follows p.
type parked struct {
	at       Time
	seq      uint64
	interval Time
	deadline Time    // absolute; 0 = none
	watch    *uint64 // version of the state check reads
	seen     uint64  // *watch at the last false evaluation
	check    func() bool
	p        *Proc
}

// owes reports whether the sample due at q.at has to be evaluated: the
// watched state was written since the last look, or the deadline is here.
func (q *parked) owes() bool {
	return *q.watch != q.seen || (q.deadline != 0 && q.at >= q.deadline)
}

// before reports whether q's next sample precedes the key (at, seq).
func (q *parked) before(at Time, seq uint64) bool {
	return q.at < at || (q.at == at && q.seq < seq)
}

// VerifySkips makes the engine evaluate the predicate of every sample it
// is about to skip and panic, naming the process, if it is true: the
// predicate read something its watch does not cover. A debugging aid for
// tests; virtual time and every count are unaffected.
func (e *Engine) VerifySkips() { e.verifySkips = true }

// settle brings the parked pollers up to the next thing that can dispatch:
// ev (the live heap top, if any), the earliest sample that is owed, the
// earliest deadline, or the first tick past the run's bound. Every poller
// whose next sample precedes that point is up to date — it would see what
// it saw last time — and moves to its first grid point not before it,
// skipping at least the sample it was due. It returns the index of the
// poller whose owed sample is next, or -1 if the heap's turn (or nothing's)
// has come.
func (e *Engine) settle(ev *Event, until Time) int {
	for {
		at, seq, who := Time(math.MaxInt64), uint64(0), -1
		if ev != nil {
			at, seq = ev.at, ev.seq
		}
		if until < at {
			// A sample past the bound stays pending when the run ends,
			// as PollEvery's event would.
			at, seq = until+1, 0
		}
		for i := range e.pollers {
			q := &e.pollers[i]
			if q.owes() {
				if q.before(at, seq) {
					at, seq, who = q.at, q.seq, i
				}
			} else if q.deadline != 0 && q.deadline <= at {
				at, seq, who = q.deadline, 0, -1
			}
		}
		if at == math.MaxInt64 {
			return -1 // nothing can ever dispatch again
		}
		// Whatever lies before that point owes nothing (the earliest that
		// does is the point itself, or after it). Fresh seqs go out in
		// slice order: see the exactness argument above.
		landed := false
		floor := Time(math.MaxInt64)
		for i := range e.pollers {
			q := &e.pollers[i]
			if q.before(at, seq) {
				if e.verifySkips && q.check() {
					panic(fmt.Sprintf("sim: process %s: skipped poll sample at %v would have been true: "+
						"its predicate reads state its watch does not cover", q.p.name, q.at))
				}
				k := max(1, (at-q.at+q.interval-1)/q.interval)
				q.at += k * q.interval
				q.seq = e.seq
				e.seq++
				e.elided += uint64(k)
				if q.deadline != 0 && q.at >= q.deadline {
					landed = true
				}
			}
			floor = min(floor, q.at)
		}
		e.pollFloor = floor
		if !landed {
			return who
		}
		// A poller reached its deadline sample: that sample can dispatch,
		// and the others may have been moved past it only as far as the
		// deadline itself. Go round again with it in the running.
	}
}

// sample evaluates the owed sample of e.pollers[i]: one dispatched event,
// exactly what PollEvery's callback does at the same point.
func (e *Engine) sample(i int) {
	q := &e.pollers[i]
	p := q.p
	e.now = q.at
	e.noteDispatch()
	if p.finished {
		e.unpark(i) // killed and unwound while a sample was pending
		return
	}
	ok := p.killed
	if !ok {
		e.sampled++
		if ok = q.check(); !ok {
			e.sampledFalse++
		}
	}
	if ok || (q.deadline != 0 && q.at >= q.deadline) {
		p.pollOK = ok
		e.unpark(i)
		e.epoch++
		e.schedule(p)
		return
	}
	// Re-arm one step on, with the seq PollEvery's re-armed event would
	// draw here. pollFloor stays a lower bound.
	q.seen = *q.watch
	q.at += q.interval
	q.seq = e.seq
	e.seq++
}

// unpark drops e.pollers[i], keeping the order of the rest.
func (e *Engine) unpark(i int) {
	n := len(e.pollers) - 1
	copy(e.pollers[i:], e.pollers[i+1:])
	e.pollers[n] = parked{}
	e.pollers = e.pollers[:n]
}

// pollOwe makes p's parked poll, if it has one, owe its next sample. Kill
// calls it: under a watch that never moves again the sample that notices
// the kill would otherwise never be taken.
func (e *Engine) pollOwe(p *Proc) {
	for i := range e.pollers {
		if q := &e.pollers[i]; q.p == p {
			q.seen = *q.watch - 1
			return // a process parks in one poll at a time
		}
	}
}

// PollUntil parks the process and samples check every interval of virtual
// time, like PollEvery, until it reports true (PollUntil returns true) or
// the first sample at or after the absolute time deadline still finds it
// false (PollUntil returns false). A zero deadline means none.
//
// Unlike PollEvery, a sample is evaluated only if *watch has moved since
// this poller's previous sample; the others are skipped without touching
// the event heap and counted in SchedStats.Elided. watch is a version
// counter owned by the state check reads: whoever stores into that state
// increments it, and check must read nothing else — not the clock (pass a
// deadline instead of reading Now), not state under another counter — and
// have no side effects while it returns false. A nil watch stands for the
// engine's own counter, which moves with every dispatched event, on entry
// to Run, RunUntil and Step, and when a poll resumes its process: the
// right choice for a predicate that reads arbitrary model state. Under
// that contract the process resumes at the same virtual time and in the
// same order relative to same-time events as under PollEvery.
// Engine.VerifySkips checks the contract at run time.
//
// A poll nothing can make true any more (watch up to date, no deadline,
// and — under the engine's counter — no pending events) does not keep the
// engine alive: Run reports the process as parked forever, as it does for
// a Cond nobody will signal.
func (p *Proc) PollUntil(interval, deadline Time, watch *uint64, check func() bool) bool {
	if interval <= 0 {
		panic("sim: PollUntil with non-positive interval")
	}
	if check() {
		return true
	}
	e := p.eng
	if deadline != 0 && e.now >= deadline {
		return false
	}
	if watch == nil {
		watch = &e.epoch
	}
	// Longer intervals first; among equals, behind every poller that has
	// already had its turn on the current tick and in front of those whose
	// sample on it is still pending — the place PollEvery's first event,
	// pushed now, takes among theirs one interval from now.
	i := 0
	for ; i < len(e.pollers); i++ {
		if q := &e.pollers[i]; q.interval < interval || (q.interval == interval && q.at == e.now) {
			break
		}
	}
	e.pollers = append(e.pollers, parked{})
	copy(e.pollers[i+1:], e.pollers[i:])
	e.pollers[i] = parked{at: e.now + interval, seq: e.seq, interval: interval, deadline: deadline,
		watch: watch, seen: *watch, check: check, p: p}
	e.seq++
	if len(e.pollers) == 1 || e.pollFloor > e.now+interval {
		e.pollFloor = e.now + interval
	}
	p.park("poll")
	return p.pollOK
}
