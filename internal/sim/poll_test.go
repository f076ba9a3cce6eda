package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// pollPrimitive is the shape both poll implementations are driven through.
type pollPrimitive func(p *Proc, interval, deadline Time, watch *uint64, check func() bool) bool

func pollElided(p *Proc, interval, deadline Time, watch *uint64, check func() bool) bool {
	return p.PollUntil(interval, deadline, watch, check)
}

// pollLegacy is the oracle: every sample is a heap event whatever was
// written since the last one, and a bounded poll reads the clock inside
// the predicate — the shape rpc.awaitReply had before PollUntil existed.
func pollLegacy(p *Proc, interval, deadline Time, _ *uint64, check func() bool) bool {
	timedOut := false
	p.PollEvery(interval, func() bool {
		if check() {
			return true
		}
		if deadline != 0 && p.Now() >= deadline {
			timedOut = true
			return true
		}
		return false
	})
	return !timedOut
}

// runMode is how pollScenario drives its engine.
type runMode int

const (
	oneRun            runMode = iota // a single Run
	chunks                           // RunUntil in random-sized chunks, then Run
	chunksWithChanges                // the same, with model state changed between the chunks
)

// pollScenario runs one seeded random schedule on the given primitive and
// returns the global log of everything observable: who ran, when, and in
// which order, followed by the final clock.
//
// The schedule mixes callback events (many landing exactly on the 100 ns
// grid the pollers sample on), zero-delay pushes, sleeping processes,
// pollers with equal and unequal phases and intervals, deadlines on and
// off the grid, each spin scoped to the version of the one cell it reads
// or to nothing (nil: the engine's counter), condition waiters with
// timeouts, contenders for a
// resource (the ones with few turns exit while the rest queue), a Kill of
// a poller and of one other process, and a Stop from a callback, after
// which the run is taken up again.
func pollScenario(seed int64, poll pollPrimitive, mode runMode) (log []string, st SchedStats) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.VerifySkips()
	const end = 40 * Microsecond
	// Every cell has its own version, bumped by every store into it: the
	// watch of the spins scoped to that cell.
	cells := make([]int, 4)
	vers := make([]uint64, len(cells))
	store := func(cell, v int) {
		cells[cell] = v
		vers[cell]++
	}
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	// gridTime draws a time that is a multiple of 50 ns three times out
	// of four, so ties with sample ticks are the common case.
	gridTime := func(max Time) Time {
		if rng.Intn(4) == 0 {
			return Time(rng.Int63n(int64(max)))
		}
		return Time(rng.Int63n(int64(max)/50)) * 50
	}

	for i, n := 0, 20+rng.Intn(40); i < n; i++ {
		i, at, cell, chain := i, gridTime(end), rng.Intn(len(cells)), rng.Intn(3) == 0
		e.At(at, func() {
			store(cell, cells[cell]+1)
			note("event %d cell %d=%d", i, cell, cells[cell])
			if chain {
				e.After(0, func() {
					next := (cell + 1) % len(cells)
					store(next, cells[next]+1)
					note("chain %d", i)
				})
			}
		})
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		i, cell := i, rng.Intn(len(cells))
		naps := make([]Time, 3+rng.Intn(6))
		for j := range naps {
			naps[j] = gridTime(4 * Microsecond)
		}
		e.Go(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			for _, d := range naps {
				p.Sleep(d)
				store(cell, cells[cell]+1)
				note("sleeper %d cell %d=%d", i, cell, cells[cell])
			}
		})
	}
	var pollers []*Proc
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		i := i
		start := Time(rng.Intn(3)) * 100 // equal phases are common
		type spin struct {
			interval, deadline Time // deadline relative to the spin's start
			cell, want         int
			scoped             bool // watch the cell's version, not the engine's counter
			nap                Time
		}
		spins := make([]spin, 1+rng.Intn(5))
		for j := range spins {
			s := spin{
				interval: []Time{100, 100, 100, 250, 30}[rng.Intn(5)],
				cell:     rng.Intn(len(cells)),
				want:     1 + rng.Intn(12),
				scoped:   rng.Intn(2) == 0,
				nap:      Time(rng.Intn(3)) * 50,
			}
			switch rng.Intn(3) {
			case 1:
				s.deadline = Time(1+rng.Intn(40)) * s.interval // on the grid
			case 2:
				s.deadline = Time(1 + rng.Intn(4000)) // anywhere
			}
			spins[j] = s
		}
		pollers = append(pollers, e.Go(fmt.Sprintf("poller%d", i), func(p *Proc) {
			p.Sleep(start)
			for j, s := range spins {
				deadline := s.deadline
				if deadline != 0 {
					deadline += p.Now()
				}
				var watch *uint64
				if s.scoped {
					watch = &vers[s.cell]
				}
				ok := poll(p, s.interval, deadline, watch, func() bool { return cells[s.cell] >= s.want })
				next := (s.cell + 1) % len(cells)
				store(next, cells[next]+1) // pollers wake each other
				note("poller %d spin %d ok=%v", i, j, ok)
				p.Sleep(s.nap)
			}
		}))
	}
	var others []*Proc
	c := NewCond(e)
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		i := i
		waits := make([]Time, 2+rng.Intn(5))
		for j := range waits {
			waits[j] = 50 + gridTime(3*Microsecond)
		}
		others = append(others, e.Go(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			for j, d := range waits {
				woken := c.WaitTimeout(p, d)
				store(i%len(cells), cells[i%len(cells)]+1)
				note("waiter %d wait %d woken=%v", i, j, woken)
			}
		}))
	}
	for i, n := 0, 3+rng.Intn(8); i < n; i++ {
		all := rng.Intn(3) == 0
		e.At(gridTime(end/2), func() {
			note("signal all=%v to %d", all, c.n)
			if all {
				c.Broadcast()
			} else {
				c.Signal()
			}
		})
	}
	r := NewResource(e, "bus")
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		i, gap := i, gridTime(Microsecond)
		holds := make([]Time, 1+rng.Intn(5))
		for j := range holds {
			holds[j] = gridTime(2 * Microsecond)
		}
		others = append(others, e.Go(fmt.Sprintf("user%d", i), func(p *Proc) {
			for j, d := range holds {
				r.Use(p, d)
				note("user %d turn %d", i, j)
				p.Sleep(gap)
			}
		}))
	}
	for _, victim := range []*Proc{pollers[rng.Intn(len(pollers))], others[rng.Intn(len(others))]} {
		e.At(gridTime(end/2), func() {
			note("kill %s", victim.Name())
			victim.Kill()
		})
	}
	stopped := false
	e.At(gridTime(end), func() {
		note("stop")
		stopped = true
		e.Stop()
	})
	// Everything outstanding comes true here, so the legacy run ends.
	e.At(end, func() {
		for i := range cells {
			store(i, 1<<20)
		}
		note("release")
	})

	// run is Run (until < 0) or RunUntil, taken up again after the Stop.
	run := func(until Time) {
		for {
			err := error(nil)
			if until < 0 {
				err = e.Run()
			} else {
				err = e.RunUntil(until)
			}
			if err != nil {
				panic(err)
			}
			if !stopped {
				return
			}
			stopped = false
		}
	}
	if mode != oneRun {
		// The last boundary is the release event's tick: activity goes on
		// past it, so the final clock is the last event's in every mode.
		for t := Time(0); t < end; {
			t = min(t+Time(1+rng.Intn(60))*50, end)
			run(t)
			if e.Now() != t {
				panic(fmt.Sprintf("RunUntil(%d) left the clock at %d", t, e.Now()))
			}
			if mode == chunksWithChanges {
				cell := rng.Intn(len(cells))
				store(cell, cells[cell]+1) // changed outside any dispatch
			}
		}
	}
	run(-1)
	note("final clock")
	return log, e.SchedStats()
}

// The differential oracle: on random schedules PollUntil must resume every
// process at the same virtual time and in the same global order as
// PollEvery, end at the same clock, and account for every sample it did
// not execute.
func TestPollUntilMatchesPollEvery(t *testing.T) {
	var elided uint64
	for seed := int64(1); seed <= 300; seed++ {
		for _, mode := range []runMode{oneRun, chunksWithChanges} {
			want, legacy := pollScenario(seed, pollLegacy, mode)
			got, st := pollScenario(seed, pollElided, mode)
			if i, w, g := firstDifference(want, got); i >= 0 {
				t.Fatalf("seed %d mode %d: logs diverge at entry %d:\n legacy %q\n elided %q", seed, mode, i, w, g)
			}
			if legacy.Elided != 0 {
				t.Fatalf("seed %d: PollEvery elided %d samples", seed, legacy.Elided)
			}
			if legacy.Dispatched != st.Dispatched+st.Elided {
				t.Fatalf("seed %d mode %d: legacy dispatched %d != elided run's %d dispatched + %d elided",
					seed, mode, legacy.Dispatched, st.Dispatched, st.Elided)
			}
			elided += st.Elided
		}
	}
	if elided == 0 {
		t.Fatal("no sample was ever elided: the test exercises nothing")
	}
}

// firstDifference returns the index of the first entry at which two logs
// differ, with the two entries ("" past a log's end); -1 if they are equal.
func firstDifference(a, b []string) (i int, ai, bi string) {
	for i := 0; i < len(a) || i < len(b); i++ {
		ai, bi = "", ""
		if i < len(a) {
			ai = a[i]
		}
		if i < len(b) {
			bi = b[i]
		}
		if i >= len(a) || i >= len(b) || ai != bi {
			return i, ai, bi
		}
	}
	return -1, "", ""
}

// The chunked-run differential: the same schedule executed by one Run and
// by RunUntil in random-sized chunks must produce the same (who, when,
// global order) log, final clock and event count. A chunk ends wherever
// the bound falls, nearly always while some process's goroutine is
// driving the loop, so the baton comes back to the caller from a different
// goroutine at almost every boundary and leaves on the caller's at the
// next — under one scheduler thread (the benchmark's setting) and several.
func TestChunkedRunMatchesSingleRun(t *testing.T) {
	for _, threads := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(threads)
		for seed := int64(1); seed <= 100; seed++ {
			for i, poll := range []pollPrimitive{pollLegacy, pollElided} {
				name := []string{"PollEvery", "PollUntil"}[i]
				want, one := pollScenario(seed, poll, oneRun)
				got, chunked := pollScenario(seed, poll, chunks)
				if i, w, g := firstDifference(want, got); i >= 0 {
					t.Fatalf("GOMAXPROCS %d seed %d %s: logs diverge at entry %d:\n one run %q\n chunked %q",
						threads, seed, name, i, w, g)
				}
				// Entering a run bumps the epoch, so a chunk boundary can
				// make one skipped sample a real one; the sum is what is
				// invariant, and under PollEvery it is Dispatched alone.
				if one.Dispatched+one.Elided != chunked.Dispatched+chunked.Elided {
					t.Fatalf("GOMAXPROCS %d seed %d %s: one run %d dispatched + %d elided, chunked %d + %d",
						threads, seed, name, one.Dispatched, one.Elided, chunked.Dispatched, chunked.Elided)
				}
				if chunked.Handoffs <= one.Handoffs {
					t.Fatalf("GOMAXPROCS %d seed %d %s: chunked run passed the baton %d times, one run %d: the chunks never ended off the caller's goroutine",
						threads, seed, name, chunked.Handoffs, one.Handoffs)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// Two pollers tied on every tick and an event on the same tick: the order
// in which they observe the event is fixed by seq alone.
func TestPollUntilTieOrder(t *testing.T) {
	run := func(poll pollPrimitive) []string {
		e := NewEngine()
		var order []string
		flag := false
		for _, name := range []string{"a", "b", "c"} {
			e.Go(name, func(p *Proc) {
				poll(p, 100, 0, nil, func() bool { return flag })
				order = append(order, fmt.Sprintf("%s@%d", name, p.Now()))
			})
		}
		e.Go("late", func(p *Proc) {
			p.Sleep(700)
			// Pushed long after the pollers parked, due on their tick:
			// PollEvery's sample events for tick 1000 were pushed at 900,
			// so this runs first and all three see it at 1000.
			e.At(1000, func() { flag = true; order = append(order, "set@1000") })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want, got := run(pollLegacy), run(pollElided)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie order: legacy %v, elided %v", want, got)
	}
	if want[0] != "set@1000" || want[1] != "a@1000" {
		t.Fatalf("unexpected legacy order %v", want)
	}
}

func TestPollUntilDeadline(t *testing.T) {
	e := NewEngine()
	var ok bool
	var at Time
	e.Go("spinner", func(p *Proc) {
		p.Sleep(50)
		if p.PollUntil(100, p.Now(), nil, func() bool { return false }) {
			t.Error("a deadline already reached must time out at once")
		}
		ok = p.PollUntil(100, 1030, nil, func() bool { return false })
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The first sample at or after 1030 on a grid of 100 from 50.
	if ok || at != 1050 {
		t.Fatalf("timed-out poll returned %v at %v, want false at 1050", ok, at)
	}
	if st := e.SchedStats(); st.Elided != 9 {
		t.Fatalf("elided %d samples, want the 9 before the deadline", st.Elided)
	}
}

// A spin nothing can make true is a deadlock, reported through the wrapper
// chain like any other — not an engine that never returns.
func TestPollUntilWedgedIsDeadlock(t *testing.T) {
	e := NewEngine()
	typed := errors.New("protocol wedged")
	e.AddDeadlockWrapper(func(err error) error { return fmt.Errorf("%w: %w", typed, err) })
	e.Go("spinner", func(p *Proc) { p.PollUntil(100, 0, nil, func() bool { return false }) })
	e.Go("other", func(p *Proc) { p.PollUntil(250, 0, nil, func() bool { return false }) })
	e.Go("worker", func(p *Proc) { p.Sleep(5 * Microsecond) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil with two spins that can never come true")
	}
	if !errors.Is(err, typed) {
		t.Errorf("deadlock wrapper not applied: %v", err)
	}
	if !strings.Contains(err.Error(), "spinner (poll)") || !strings.Contains(err.Error(), "other (poll)") {
		t.Errorf("report does not name the spinners: %v", err)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d with only idle polls left", e.Pending())
	}
	if len(parkedProcs(e)) != 2 {
		t.Errorf("parked = %v", parkedProcs(e))
	}
}

// A daemon that spins forever does not hold the engine open either.
func TestPollUntilIdleDaemonTerminates(t *testing.T) {
	e := NewEngine()
	e.Go("service", func(p *Proc) {
		p.SetDaemon(true)
		p.PollUntil(100, 0, nil, func() bool { return false })
	})
	e.Go("worker", func(p *Proc) { p.Sleep(Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() > Microsecond+100 {
		t.Errorf("engine ran to %v after the last event", e.Now())
	}
}

// RunUntil must not run a sample due after its bound and must leave the
// clock on the bound; a poll that still owes a sample counts as pending, so
// an otherwise empty queue is not a deadlock.
func TestPollUntilRunUntilBound(t *testing.T) {
	e := NewEngine()
	flag := false
	samples := 0
	var resumed Time
	e.Go("spinner", func(p *Proc) {
		p.PollUntil(100, 0, nil, func() bool { samples++; return flag })
		resumed = p.Now()
	})
	e.At(1020, func() { flag = true })
	if err := e.RunUntil(1030); err != nil {
		t.Fatalf("owed sample reported as deadlock: %v", err)
	}
	if e.Now() != 1030 {
		t.Fatalf("clock at %v after RunUntil(1030)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the one owed sample", e.Pending())
	}
	before := samples
	if err := e.RunUntil(1050); err != nil {
		t.Fatal(err)
	}
	if samples != before || resumed != 0 || e.Now() != 1050 {
		t.Fatalf("the sample due at 1100 ran inside RunUntil(1050) (clock %v)", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 1100 {
		t.Fatalf("resumed at %v, want 1100", resumed)
	}
}

// A change made between runs — outside any dispatch — must be seen at the
// very next grid tick: entering a run bumps the epoch.
func TestPollUntilSeesChangeBetweenRuns(t *testing.T) {
	for _, idle := range []bool{false, true} {
		e := NewEngine()
		flag := false
		var resumed Time
		e.Go("spinner", func(p *Proc) {
			p.SetDaemon(true)
			p.PollUntil(100, 0, nil, func() bool { return flag })
			resumed = p.Now()
		})
		if !idle {
			e.At(Second, func() {}) // something for the poll to be skipped up to
		}
		if err := e.RunUntil(1030); err != nil {
			t.Fatal(err)
		}
		if e.Now() != 1030 {
			t.Fatalf("idle=%v: clock at %v after RunUntil(1030)", idle, e.Now())
		}
		flag = true
		if err := e.RunUntil(2000); err != nil {
			t.Fatal(err)
		}
		if resumed != 1100 {
			t.Fatalf("idle=%v: resumed at %v, want the first tick after the change, 1100", idle, resumed)
		}
	}
}

func TestPollUntilKilledPoller(t *testing.T) {
	e := NewEngine()
	unwound := false
	var victim *Proc
	victim = e.Go("poller", func(p *Proc) {
		defer func() { unwound = true }()
		p.PollUntil(Microsecond, 0, nil, func() bool { return false })
	})
	e.After(5*Microsecond+1, func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !unwound {
		t.Fatal("killed poller did not unwind")
	}
	// The orphaned sample at 6 us is the last thing that runs, as under
	// PollEvery; it must not re-arm.
	if e.Now() != 6*Microsecond {
		t.Errorf("engine stopped at %v, want 6 us", e.Now())
	}
}

// Under a scoped watch nothing but the kill itself makes the victim's next
// sample owed: without Kill marking the entry, a poller whose watch never
// moves again would stay in the set for good (or until its deadline).
func TestPollUntilKilledScopedPoller(t *testing.T) {
	for _, deadline := range []Time{0, 50 * Microsecond} {
		e := NewEngine()
		e.VerifySkips()
		var version uint64 // never written
		unwoundAt := Time(-1)
		var victim *Proc
		victim = e.Go("poller", func(p *Proc) {
			defer func() { unwoundAt = p.Now() }()
			p.PollUntil(Microsecond, deadline, &version, func() bool { return false })
		})
		const killAt = 5*Microsecond + 1
		e.At(killAt, func() { victim.Kill() })
		if err := e.Run(); err != nil {
			t.Fatalf("deadline %v: %v", deadline, err)
		}
		if unwoundAt != killAt {
			t.Errorf("deadline %v: unwound at %v, want the kill's tick %v", deadline, unwoundAt, killAt)
		}
		// The orphaned sample at 6 us is the last thing that runs, as
		// under PollEvery; it removes the entry.
		if e.Now() != 6*Microsecond {
			t.Errorf("deadline %v: engine stopped at %v, want 6 us", deadline, e.Now())
		}
		if e.Pending() != 0 || len(e.pollers) != 0 {
			t.Errorf("deadline %v: Pending() = %d with %d poller(s) still parked", deadline, e.Pending(), len(e.pollers))
		}
	}
}

// A scoped spin is disturbed by a store under its watch and by nothing
// else: the events in between cost it no sample, and it still resumes on
// the tick PollEvery does.
func TestPollUntilScopedIgnoresOtherEvents(t *testing.T) {
	run := func(poll pollPrimitive) (resumed Time, st SchedStats) {
		e := NewEngine()
		e.VerifySkips()
		var version uint64
		word := 0
		e.Go("spinner", func(p *Proc) {
			poll(p, 100, 0, &version, func() bool { return word == 2 })
			resumed = p.Now()
		})
		for at := Time(130); at < 5000; at += 130 {
			e.At(at, func() {}) // somebody else's business
		}
		e.At(2010, func() { word = 1; version++ }) // a store, not the awaited one
		e.At(4020, func() { word = 2; version++ })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return resumed, e.SchedStats()
	}
	wantAt, legacy := run(pollLegacy)
	gotAt, st := run(pollElided)
	if gotAt != wantAt || gotAt != 4100 {
		t.Fatalf("resumed at %v, PollEvery at %v, want 4100", gotAt, wantAt)
	}
	if st.Sampled != 2 || st.SampledFalse != 1 {
		t.Errorf("evaluated %d samples (%d false), want the two that follow a store (one false)", st.Sampled, st.SampledFalse)
	}
	if legacy.Dispatched != st.Dispatched+st.Elided {
		t.Errorf("legacy dispatched %d != %d dispatched + %d elided", legacy.Dispatched, st.Dispatched, st.Elided)
	}
}

// The watch is a promise that the predicate reads nothing else. VerifySkips
// turns a broken promise — here a Go variable changed without a bump —
// into a panic that names the process, instead of a spin that sleeps
// through the change.
func TestVerifySkipsCatchesReadOutsideWatch(t *testing.T) {
	e := NewEngine()
	e.VerifySkips()
	var version uint64
	word, side := 0, false
	e.Go("cheat", func(p *Proc) {
		p.PollUntil(100, 0, &version, func() bool { return word == 1 || side })
	})
	e.At(1030, func() { side = true }) // not under the watch
	e.At(5000, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a predicate true at a skipped sample went unnoticed")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "cheat") || !strings.Contains(msg, "watch") {
			t.Fatalf("panic does not name the process and the contract: %v", r)
		}
	}()
	e.Run()
}
