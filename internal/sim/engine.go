package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// Event is a scheduled callback. It can be canceled before it fires.
//
// Events come in two flavors internally. Public events (made by At/After)
// are heap-allocated and never reused: callers may hold the pointer
// indefinitely, cancel it late, or query it after it fired. Internal
// events (process wakeups, condition timeouts) never escape the package,
// so they are drawn from a free list and recycled the moment they leave
// the event heap — steady-state scheduling does not allocate.
type Event struct {
	eng      *Engine
	at       Time
	seq      uint64
	fn       func()      // generic callback (public events, Post)
	proc     *Proc       // start or wake this process (closure-free fast path)
	waiter   *condWaiter // expire this condition-wait timeout
	canceled bool
	pooled   bool
	index    int // heap index, -1 once popped
}

// Cancel prevents the event's callback from running. Canceling an event
// that already fired or was already canceled is a no-op.
func (ev *Event) Cancel() {
	if ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil
	ev.proc = nil
	ev.waiter = nil
	if ev.index >= 0 {
		ev.eng.noteCancel()
	}
}

// Time reports when the event is (or was) scheduled to fire.
func (ev *Event) Time() Time { return ev.at }

// eventHeap is a binary min-heap ordered by (time, seq). It is hand-rolled
// rather than built on container/heap: the interface-based sift calls cost
// measurably on the dispatch hot path, and this heap is the single most
// executed data structure in the simulator.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
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
		h.swap(i, least)
		i = least
	}
}

// push adds ev to the heap.
func (e *Engine) heapPush(ev *Event) {
	ev.index = len(e.events)
	e.events = append(e.events, ev)
	e.events.up(ev.index)
}

// pop removes and returns the earliest event.
func (e *Engine) heapPop() *Event {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	e.events = h[:n]
	if n > 1 {
		e.events.down(0)
	}
	ev.index = -1
	return ev
}

// compactMinCanceled is the floor below which canceled events are never
// worth sweeping; compactMinFraction is the numerator of the canceled/total
// ratio (out of compactFractionDen) that triggers a sweep.
const (
	compactMinCanceled = 64
	compactMinFraction = 1
	compactFractionDen = 2
)

// SchedStats is a point-in-time snapshot of the scheduler's internals,
// used by performance regression tests and the scalesweep harness.
type SchedStats struct {
	HeapLen      int    // events resident in the heap, canceled included
	HeapCanceled int    // canceled events awaiting compaction or pop
	PeakHeapLen  int    // largest heap residency ever observed
	Dispatched   uint64 // events executed since construction
	Elided       uint64 // PollUntil samples skipped without being executed
	Sampled      uint64 // PollUntil samples whose predicate was evaluated (each one a dispatched event)
	SampledFalse uint64 // of those, the ones that found it still false
	Handoffs     uint64 // baton tokens sent to another goroutine (a process's, or the run caller's)
	SelfResumes  uint64 // parks that ended on the goroutine that parked: no switch
	Compactions  uint64 // lazy compaction sweeps performed
	FreeEvents   int    // pooled events available for reuse
	FreeWorkers  int    // parked goroutines available for reuse
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	procs   map[*Proc]struct{} // live (spawned, not finished) processes, for checkStall and Parked
	stopped bool

	// The baton. Exactly one goroutine at a time runs the simulation: the
	// Run/RunUntil/Step caller, or a process's. Whoever holds the baton
	// and has no model code to run drives the event loop (dispatch) until
	// an event resumes a process, then passes the baton on with one
	// channel send. Every field of the engine is only touched by the
	// holder, so the token passing is all the synchronisation there is.
	cur         *Proc         // process whose body is executing; nil while dispatching
	next        *Proc         // process noted by schedule during the current dispatch
	until       Time          // bound of the run in progress
	oneStep     bool          // the run in progress is a Step
	running     bool          // inside Run/RunUntil/Step
	caller      chan struct{} // returns the baton to the Run/RunUntil/Step caller
	panicVal    any           // callback panic caught off the caller's goroutine
	handoffs    uint64
	selfResumes uint64

	// Scheduler bookkeeping: canceled-in-heap count drives lazy
	// compaction; the free lists make steady-state scheduling
	// allocation-free.
	canceledInHeap int
	peakHeapLen    int
	dispatched     uint64
	compactions    uint64
	freeEvents     []*Event
	freeWorkers    []*worker
	freeWaiters    []*condWaiter

	// Parked PollUntil spins (poll.go), in the order settle relies on.
	// pollFloor is a lower bound on every parked poller's next sample
	// time: no pass is needed before an event that lies below it. epoch is
	// the watch of the pollers that name none: it counts the dispatches
	// that may have changed model state.
	pollers      []parked
	pollFloor    Time
	epoch        uint64
	elided       uint64
	sampled      uint64
	sampledFalse uint64
	verifySkips  bool

	collector *trace.Collector
	metrics   *trace.Registry

	// deadlockWraps are applied, in registration order, to the stall
	// error checkStall constructs. Protocol layers register one to turn
	// the engine's generic parked-forever report into a typed error
	// naming the protocol state that wedged (see AddDeadlockWrapper).
	deadlockWraps []func(error) error
}

// NewEngine returns an engine with the clock at zero and no events.
func NewEngine() *Engine {
	return &Engine{
		procs:     make(map[*Proc]struct{}),
		caller:    make(chan struct{}, 1),
		pollers:   make([]parked, 0, 32), // a few dozen spins park at once in every cluster we run
		collector: trace.NewCollector(),
		metrics:   trace.NewRegistry(),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Trace returns the engine's structured trace collector. It is disabled by
// default; call Trace().Enable to start recording typed events.
func (e *Engine) Trace() *trace.Collector { return e.collector }

// Metrics returns the engine's metrics registry. Metrics are always on:
// components register counters, gauges and utilizations here at
// construction time and update them as the model runs.
func (e *Engine) Metrics() *trace.Registry { return e.metrics }

// SchedStats reports the scheduler's internal occupancy and reuse state.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{
		HeapLen:      len(e.events),
		HeapCanceled: e.canceledInHeap,
		PeakHeapLen:  e.peakHeapLen,
		Dispatched:   e.dispatched,
		Elided:       e.elided,
		Sampled:      e.sampled,
		SampledFalse: e.sampledFalse,
		Handoffs:     e.handoffs,
		SelfResumes:  e.selfResumes,
		Compactions:  e.compactions,
		FreeEvents:   len(e.freeEvents),
		FreeWorkers:  len(e.freeWorkers),
	}
}

// TraceBegin opens a span at the current virtual time. It pairs with a
// later TraceEnd with the same component and name.
func (e *Engine) TraceBegin(component, category, name string) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseBegin,
			Component: component, Category: category, Name: name})
	}
}

// TraceEnd closes the most recent span with the same component and name.
func (e *Engine) TraceEnd(component, category, name string) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseEnd,
			Component: component, Category: category, Name: name})
	}
}

// TraceInstant records a point event at the current virtual time.
func (e *Engine) TraceInstant(component, category, name string) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseInstant,
			Component: component, Category: category, Name: name})
	}
}

// TraceCounter samples a numeric value at the current virtual time. The
// trace viewer renders successive samples of one (component, name) pair as
// a counter track.
func (e *Engine) TraceCounter(component, category, name string, value float64) {
	if e.collector.Enabled() {
		e.collector.Emit(trace.Event{T: int64(e.now), Ph: trace.PhaseCounter,
			Component: component, Category: category, Name: name, Value: value})
	}
}

// MetricsSnapshot captures every registered metric at the current virtual
// time.
func (e *Engine) MetricsSnapshot() trace.Snapshot {
	return e.metrics.Snapshot(int64(e.now))
}

// newEvent pulls an event from the free list (pooled) or allocates one,
// stamps it with the next sequence number, and pushes it on the heap.
func (e *Engine) newEvent(t Time, pooled bool) *Event {
	var ev *Event
	if n := len(e.freeEvents); pooled && n > 0 {
		ev = e.freeEvents[n-1]
		e.freeEvents[n-1] = nil
		e.freeEvents = e.freeEvents[:n-1]
		ev.canceled = false
	} else {
		ev = &Event{}
	}
	ev.eng = e
	ev.at = t
	ev.seq = e.seq
	ev.pooled = pooled
	e.seq++
	e.heapPush(ev)
	if n := len(e.events); n > e.peakHeapLen {
		e.peakHeapLen = n
	}
	return ev
}

// recycle drops an event's references once it has left the heap. Pooled
// events return to the free list for reuse; public events just release
// their callback so held pointers cannot pin dead closures.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.proc = nil
	ev.waiter = nil
	if ev.pooled {
		e.freeEvents = append(e.freeEvents, ev)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a model bug.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.newEvent(t, false)
	ev.fn = fn
	return ev
}

// After schedules fn to run d after the current time. A non-positive d
// schedules it at the current time (it still runs after the current event
// completes).
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn to run d after the current time, like After, but hands
// out no handle: an event nobody can cancel or query is recycled the
// moment it fires, so posting one does not allocate. It is what a
// continuation uses where a process would sleep.
func (e *Engine) Post(d Time, fn func()) { e.postFn(d, fn) }

// postFn schedules an internal, pooled callback event. The returned event
// must not escape the package: it is recycled as soon as it leaves the
// heap.
func (e *Engine) postFn(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	ev := e.newEvent(e.now+d, true)
	ev.fn = fn
	return ev
}

// postWake schedules an internal, pooled "resume this process" event.
// Unlike an After closure it captures nothing, so the steady-state
// sleep/wake path does not allocate.
func (e *Engine) postWake(d Time, p *Proc) *Event {
	if d < 0 {
		d = 0
	}
	ev := e.newEvent(e.now+d, true)
	ev.proc = p
	return ev
}

// postTimeout schedules an internal, pooled condition-timeout event. The
// waiter record carries the owning Cond, keeping Event one field smaller.
func (e *Engine) postTimeout(d Time, w *condWaiter) *Event {
	if d < 0 {
		d = 0
	}
	ev := e.newEvent(e.now+d, true)
	ev.waiter = w
	return ev
}

// noteCancel accounts for an in-heap cancellation and sweeps the heap once
// canceled entries exceed a fraction of it. Without the sweep, cancel-heavy
// workloads (retransmit timers that almost always get acked first) keep
// dead entries resident until their distant deadlines pop, growing the heap
// without bound and slowing every push and pop.
func (e *Engine) noteCancel() {
	e.canceledInHeap++
	if e.canceledInHeap >= compactMinCanceled &&
		e.canceledInHeap*compactFractionDen >= len(e.events)*compactMinFraction {
		e.compact()
	}
}

// compact removes every canceled event from the heap in one O(n) pass and
// restores the heap invariant. Relative order of live events is preserved:
// ordering is (time, seq), which filtering does not disturb.
func (e *Engine) compact() {
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			e.recycle(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = kept
	for i, ev := range e.events {
		ev.index = i
	}
	for i := len(e.events)/2 - 1; i >= 0; i-- {
		e.events.down(i)
	}
	e.canceledInHeap = 0
	e.compactions++
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event or poll sample,
// advancing the clock to its timestamp. If that event resumes a process,
// the process runs to its next park before Step returns. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	n := e.dispatched
	e.run(math.MaxInt64, true)
	return e.dispatched != n
}

// run is one Run, RunUntil or Step. The caller's goroutine drives the
// event loop first; once an event resumes a process the baton travels
// from process to process, and it comes back here only when the run is
// over: nothing left within the bound, Stop called, or the one step taken.
func (e *Engine) run(until Time, oneStep bool) {
	if e.running {
		panic("sim: Run, RunUntil or Step called from inside the simulation")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopped, e.until, e.oneStep = false, until, oneStep
	e.epoch++ // the caller may have changed model state between runs
	// A callback that panics right here unwinds through the caller as it
	// is; dispatch is guarded (drive) only on process goroutines.
	if p := e.dispatch(); p != nil {
		e.pass(p)
		<-e.caller
	}
	if r := e.panicVal; r != nil {
		e.panicVal = nil
		panic(r)
	}
}

// dispatch runs the event loop on the calling goroutine, which holds the
// baton, until an event resumes a process. It makes that process current
// and returns it; nil means the run is over. Every schedule call is the
// last act of its dispatch, so resuming the process after step returns —
// here, not inside the callback — runs it at exactly the point in the
// event order where it always ran.
func (e *Engine) dispatch() *Proc {
	for !e.stopped && e.step(e.until) {
		if e.oneStep {
			e.stopped = true // a Step is a run that stops itself after one dispatch
		}
		if p := e.next; p != nil {
			e.next = nil
			p.parkedAt = ""
			e.cur = p
			return p
		}
	}
	return nil
}

// drive is dispatch for a goroutine that belongs to a process. Callbacks
// run on whichever goroutine holds the baton; one that panics here must
// not unwind through the body of a process that merely happened to be
// parked — its deferred releases would run, and the panic would die on a
// goroutine nobody can recover on. drive stops the run and leaves the
// value for run to raise again on the Run/RunUntil/Step caller. A callback
// that ends the goroutine instead (runtime.Goexit: t.FailNow in a test)
// is turned into such a panic too, or the baton would be lost with it.
func (e *Engine) drive() (next *Proc) {
	done := false
	defer func() {
		if done {
			return
		}
		r := recover()
		e.stopped = true
		if e.panicVal = r; r == nil {
			e.panicVal = "sim: an event callback ended its goroutine (runtime.Goexit; t.FailNow belongs in the test's goroutine)"
			e.pass(nil)
			select {} // the exit would run the parked body's defers next
		}
	}()
	next = e.dispatch()
	done = true
	return next
}

// pass sends the baton to p's goroutine, or to the Run/RunUntil/Step
// caller when p is nil. The sender then waits for its own next turn.
func (e *Engine) pass(p *Proc) {
	e.handoffs++
	if p == nil {
		e.caller <- struct{}{}
		return
	}
	p.w.resume <- struct{}{}
}

// step executes the earliest pending event or poll sample due at or
// before until. It reports false when there is none — including when all
// that remains are polls nothing can make true any more.
func (e *Engine) step(until Time) bool {
	var ev *Event
	for len(e.events) > 0 {
		if ev = e.events[0]; !ev.canceled {
			break
		}
		e.heapPop()
		e.canceledInHeap--
		e.recycle(ev)
		ev = nil
	}
	if len(e.pollers) > 0 && (ev == nil || e.pollFloor <= ev.at) {
		if i := e.settle(ev, until); i >= 0 {
			e.sample(i)
			return true
		}
	}
	if ev == nil || ev.at > until {
		return false
	}
	e.heapPop()
	e.now = ev.at
	e.noteDispatch()
	e.epoch++
	switch {
	case ev.fn != nil:
		fn := ev.fn
		e.recycle(ev)
		fn()
	case ev.proc != nil:
		p := ev.proc
		e.recycle(ev)
		if p.start != nil {
			e.startProc(p)
		} else {
			e.schedule(p)
		}
	case ev.waiter != nil:
		w := ev.waiter
		e.recycle(ev)
		w.c.expire(w)
	default:
		// A canceled-after-pop slot cannot occur (cancellation is
		// checked above), so an empty event is a scheduler bug.
		panic("sim: empty event dispatched")
	}
	return true
}

// noteDispatch counts one executed event or poll sample.
func (e *Engine) noteDispatch() {
	e.dispatched++
}

// Run executes events until none remain or Stop is called. It returns an
// error if live processes remain parked with no pending events — a
// deadlock in the model. A panic in an event callback stops the run and
// surfaces here, on the caller's goroutine, with its original value.
func (e *Engine) Run() error {
	e.run(math.MaxInt64, false)
	return e.checkStall()
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// It returns a deadlock error under the same conditions as Run if the event
// queue drains early. If Stop fires inside an event, the clock stays at the
// stopping event's time — it does NOT advance to t, so a Stop-at-threshold
// model observes the time it stopped at.
func (e *Engine) RunUntil(t Time) error {
	e.run(t, false)
	if e.stopped {
		return nil
	}
	if len(e.events) == 0 {
		if err := e.checkStall(); err != nil {
			return err
		}
	}
	if e.now < t {
		e.now = t
	}
	return nil
}

func (e *Engine) checkStall() error {
	if e.Pending() > 0 {
		return nil
	}
	var parked []string
	for p := range e.procs {
		if p.parkedAt != "" && !p.daemon {
			parked = append(parked, p.name+" ("+p.parkedAt+")")
		}
	}
	if len(parked) == 0 {
		return nil
	}
	sort.Strings(parked)
	err := fmt.Errorf("sim: deadlock at %v: %d process(es) parked forever: %v",
		e.now, len(parked), parked)
	for _, wrap := range e.deadlockWraps {
		err = wrap(err)
	}
	return err
}

// AddDeadlockWrapper registers a hook that may annotate the deadlock error
// checkStall reports. Each wrapper receives the error as built so far (the
// engine's generic report, possibly already wrapped by earlier hooks) and
// returns either the same error — when it has nothing to add — or a typed
// error wrapping it. Wrappers run only when the simulation has actually
// wedged, never on a healthy run, so registering one is free.
func (e *Engine) AddDeadlockWrapper(wrap func(error) error) {
	e.deadlockWraps = append(e.deadlockWraps, wrap)
}

// Pending reports the number of scheduled (non-canceled) events, plus the
// parked polls that still owe a sample — those with a deadline, and those
// whose watch has moved since they last looked.
func (e *Engine) Pending() int {
	n := len(e.events) - e.canceledInHeap
	for i := range e.pollers {
		if q := &e.pollers[i]; q.deadline != 0 || q.owes() {
			n++
		}
	}
	return n
}
