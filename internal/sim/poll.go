package sim

import "math"

// Eliding polls.
//
// A spin on a cache-resident word costs the real machine nothing between
// the moments the word changes; PollEvery charges the simulator one heap
// event per 0.1 us sample regardless. PollUntil keeps the same sampling
// grid but evaluates only the samples that could observe something new.
//
// The argument: model state changes only while the engine dispatches an
// event (a process runs only as the tail of the dispatch that resumed it,
// up to its next park). A predicate that is a pure function of model
// state therefore returns what it returned at this poller's previous
// false sample unless a real dispatch happened in between. The engine
// counts real dispatches in an epoch; a poller remembers the epoch of its
// last false sample; a sample whose epoch is still current is skipped
// arithmetically.
//
// Exactness: pollers live outside the event heap but keep a (time, seq)
// key in the same order space. A skipped sample consumes its place in that
// order exactly as PollEvery's re-armed event would have: the surviving
// sample's seq is allocated while the poller is the earliest thing pending,
// i.e. after everything already scheduled and before everything scheduled
// later. A batch of k skips is k single skips during which the poller stays
// the earliest pending item, so it stops at the first grid point that is
// not before the heap top, the next poller, its own deadline, or the
// RunUntil bound. Resume tick and same-tick ordering match PollEvery.

// poller is the state of one parked PollUntil. A process spins on at most
// one predicate at a time, so it owns a single record, allocated on its
// first spin and reused: enlisting allocates nothing in steady state, and
// the many short-lived processes that never spin pay only for a pointer.
type poller struct {
	check    func() bool
	interval Time
	deadline Time   // absolute; 0 = none
	epoch    uint64 // engine epoch at the last false evaluation
	ok       bool   // result handed back to PollUntil
}

// pollEntry is a parked poller's place in the order: its next sample time
// and the seq that breaks ties against events and other pollers. The key
// is stored in the heap itself so sifting does not chase Proc pointers.
type pollEntry struct {
	at  Time
	seq uint64
	p   *Proc
}

// pollHeap is a binary min-heap of parked pollers ordered by (at, seq).
type pollHeap []pollEntry

func (h pollHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h pollHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h pollHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// pollRemoveTop drops the earliest poller from the set.
func (e *Engine) pollRemoveTop() {
	h := e.pollers
	n := len(h) - 1
	h[0] = h[n]
	h[n] = pollEntry{}
	e.pollers = h[:n]
	e.pollers.down(0)
}

// pollRearm moves the earliest poller k grid steps on and gives it the seq
// PollEvery's re-armed event would have drawn at this point in the order.
func (e *Engine) pollRearm(k Time) {
	top := &e.pollers[0]
	top.at += k * top.p.poll.interval
	top.seq = e.seq
	e.seq++
	e.pollers.down(0)
}

// bumpEpoch records that model state may have changed: every parked
// poller owes a real sample again.
func (e *Engine) bumpEpoch() {
	e.epoch++
	e.pollIdle = 0
}

// elide skips the samples of the earliest poller (due before ev, the live
// heap top, if any) that cannot observe a change. It reports false when the
// sample due now has to be evaluated for real.
func (e *Engine) elide(ev *Event, until Time) bool {
	at := e.pollers[0].at
	pl := e.pollers[0].p.poll
	if pl.epoch != e.epoch || (pl.deadline != 0 && at >= pl.deadline) {
		return false
	}
	// The first point at which anything else is due.
	limit := Time(math.MaxInt64)
	if ev != nil {
		limit = ev.at
	}
	for c := 1; c <= 2 && c < len(e.pollers); c++ {
		if other := e.pollers[c].at; other < limit {
			limit = other
		}
	}
	if pl.deadline != 0 && pl.deadline < limit {
		limit = pl.deadline
	}
	// Skip this sample and every later one strictly before limit, but
	// none past the RunUntil bound: that one is still pending when the
	// run ends, as PollEvery's event would be. One of the two is always
	// finite — step does not get here with nothing else due, ever.
	k := Time(math.MaxInt64)
	if limit != math.MaxInt64 {
		k = max(1, (limit-at+pl.interval-1)/pl.interval)
	}
	if until != math.MaxInt64 {
		k = min(k, (until-at)/pl.interval+1)
	}
	e.elided += uint64(k)
	e.pollRearm(k)
	return true
}

// sample evaluates the earliest poller's due sample: one dispatched event,
// exactly what PollEvery's callback does at the same point.
func (e *Engine) sample() {
	at, p := e.pollers[0].at, e.pollers[0].p
	pl := p.poll
	e.now = at
	e.noteDispatch()
	if !e.alive(p) {
		e.pollRemoveTop() // killed and unwound while a sample was pending
		return
	}
	pl.ok = p.killed || pl.check()
	if pl.ok || (pl.deadline != 0 && at >= pl.deadline) {
		e.pollRemoveTop()
		pl.check = nil
		e.bumpEpoch()
		e.schedule(p)
		return
	}
	// Only a stale poller gets here: an up-to-date one is sampled only
	// at its deadline, and that sample never re-arms.
	pl.epoch = e.epoch
	if pl.deadline == 0 {
		e.pollIdle++
	}
	e.pollRearm(1)
}

// PollUntil parks the process and samples check every interval of virtual
// time, like PollEvery, until it reports true (PollUntil returns true) or
// the first sample at or after the absolute time deadline still finds it
// false (PollUntil returns false). A zero deadline means none.
//
// Unlike PollEvery, a sample is evaluated only if an event has been
// dispatched since this poller's previous sample; the others are skipped
// without touching the event heap and counted in SchedStats.Elided. The
// process resumes at the same virtual time and in the same order relative
// to same-time events as under PollEvery, provided check is a pure
// function of model state: no side effects while it returns false, and no
// dependence on the clock — pass a deadline instead of reading Now.
//
// A poll whose predicate nothing can change any more (no pending events,
// no deadline) does not keep the engine alive: Run reports the process as
// parked forever, as it does for a Cond nobody will signal.
func (p *Proc) PollUntil(interval, deadline Time, check func() bool) bool {
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
	if p.poll == nil {
		p.poll = new(poller)
	}
	*p.poll = poller{check: check, interval: interval, deadline: deadline, epoch: e.epoch}
	if deadline == 0 {
		e.pollIdle++
	}
	e.pollers = append(e.pollers, pollEntry{at: e.now + interval, seq: e.seq, p: p})
	e.seq++
	e.pollers.up(len(e.pollers) - 1)
	p.park("poll")
	return p.poll.ok
}
