package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestCancelChurnBoundedHeap pins the canceled-event compaction: a
// retransmit-timer-style workload that schedules a distant timeout and
// cancels it every iteration must not accumulate dead entries. Before
// lazy compaction, every canceled event stayed resident until its
// (never-reached) deadline popped, growing the heap without bound.
func TestCancelChurnBoundedHeap(t *testing.T) {
	e := NewEngine()
	const iters = 20000
	n := 0
	var tick func()
	tick = func() {
		// A long timer that is always canceled before it fires — the
		// ack arriving before the retransmit deadline.
		timer := e.After(Second, func() { t.Error("canceled timer fired") })
		timer.Cancel()
		if n++; n < iters {
			e.After(Microsecond, tick)
		}
	}
	e.After(0, tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.PeakHeapLen > 4*compactMinCanceled {
		t.Errorf("peak heap %d under cancel churn, want <= %d (compaction broken)",
			st.PeakHeapLen, 4*compactMinCanceled)
	}
	if st.Compactions == 0 {
		t.Error("no compactions ran under cancel-heavy load")
	}
	if st.HeapCanceled != 0 || st.HeapLen != 0 {
		t.Errorf("drained engine still holds %d events (%d canceled)",
			st.HeapLen, st.HeapCanceled)
	}
}

// TestWaitTimeoutChurnBoundedHeap is the same guarantee one layer up:
// WaitTimeout that is always signaled first (PR 2's retransmit pattern)
// must keep the event heap bounded.
func TestWaitTimeoutChurnBoundedHeap(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	const iters = 10000
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < iters; i++ {
			if !c.WaitTimeout(p, Second) {
				t.Error("timed out despite signal")
				return
			}
		}
	})
	e.Go("signaler", func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Sleep(Microsecond)
			c.Signal()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.PeakHeapLen > 4*compactMinCanceled {
		t.Errorf("peak heap %d under WaitTimeout churn, want <= %d",
			st.PeakHeapLen, 4*compactMinCanceled)
	}
}

// TestPendingTracksCancellation pins the O(1) Pending accounting across
// cancel, compact, and pop.
func TestPendingTracksCancellation(t *testing.T) {
	e := NewEngine()
	evs := make([]*Event, 0, 200)
	for i := 0; i < 200; i++ {
		evs = append(evs, e.At(Time(1000+i), func() {}))
	}
	for i := 0; i < 100; i++ {
		evs[2*i].Cancel()
	}
	if got := e.Pending(); got != 100 {
		t.Errorf("Pending after 100/200 cancels = %d, want 100", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after drain = %d, want 0", got)
	}
}

// TestRunUntilStopHoldsClock pins the Stop/RunUntil interplay: a Stop
// fired from inside an event must leave the clock at that event's time,
// not advance it to the horizon.
func TestRunUntilStopHoldsClock(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++; e.Stop() })
	e.At(20, func() { ran++ })
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Errorf("Now() after Stop inside RunUntil = %v, want 10", e.Now())
	}
	if ran != 1 {
		t.Errorf("events run before Stop = %d, want 1", ran)
	}
	// The rest of the horizon is still reachable afterwards.
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if ran != 2 || e.Now() != 1000 {
		t.Errorf("after resume: ran=%d Now()=%v, want 2 and 1000", ran, e.Now())
	}
}

// TestKilledWaiterLeavesNoResidue kills processes parked on a Cond (both
// plain Wait and WaitTimeout) and checks the waiter list and the event
// heap end up empty: the kill unwind must withdraw the waiter record and
// cancel its timeout, or long-lived conditions leak one record per crash.
func TestKilledWaiterLeavesNoResidue(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	v1 := e.Go("v1", func(p *Proc) { c.Wait(p) })
	v2 := e.Go("v2", func(p *Proc) { c.WaitTimeout(p, Second) })
	e.At(10, func() {
		if c.n != 2 {
			t.Errorf("%d waiters, want 2", c.n)
		}
		v1.Kill()
		v2.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.n != 0 {
		t.Errorf("killed procs left %d waiter(s) enlisted", c.n)
	}
	st := e.SchedStats()
	if st.HeapLen != 0 {
		t.Errorf("killed WaitTimeout left %d event(s) in the heap", st.HeapLen)
	}
}

// TestKilledWaiterDoesNotSwallowSignal re-pins the PR 2 semantics on the
// linked-list waiter path: a signal racing a kill must skip the dying
// waiter and wake a live one.
func TestKilledWaiterDoesNotSwallowSignal(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	victim := e.Go("victim", func(p *Proc) { c.Wait(p) })
	woken := false
	e.Go("live", func(p *Proc) {
		p.Sleep(1)
		c.Wait(p)
		woken = true
	})
	e.At(10, func() {
		victim.Kill()
		c.Signal() // victim is dying: the signal must reach "live"
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Error("signal was swallowed by the killed waiter")
	}
}

// TestWorkerReuse checks that sequential process lifetimes share
// goroutines: after many short-lived processes, the engine holds a small
// worker pool rather than having spawned one goroutine each.
func TestWorkerReuse(t *testing.T) {
	e := NewEngine()
	const procs = 500
	done := 0
	var next func(i int)
	next = func(i int) {
		e.Go("p", func(p *Proc) {
			p.Sleep(1)
			done++
			if i+1 < procs {
				next(i + 1)
			}
		})
	}
	next(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != procs {
		t.Fatalf("ran %d procs, want %d", done, procs)
	}
	if st := e.SchedStats(); st.FreeWorkers > 4 {
		t.Errorf("sequential lifetimes grew the worker pool to %d, want <= 4 (reuse broken)",
			st.FreeWorkers)
	}
}

// TestSameNameKillTargetsOnlyVictim: two processes sharing a name, one
// killed — the unwind must be matched by process identity, not name.
func TestSameNameKillTargetsOnlyVictim(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	survived := false
	e.Go("twin", func(p *Proc) {
		c.Wait(p)
		survived = true
	})
	victim := e.Go("twin", func(p *Proc) { c.Wait(p) })
	e.At(10, func() { victim.Kill() })
	e.At(20, func() { c.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !survived {
		t.Error("kill of one 'twin' unwound the other")
	}
}

// TestKillAtSpawnInstant: a process killed in the instant it was spawned —
// before its start event has fired — still starts, runs its body to the
// first park, and unwinds there with its defers run; an event posted
// between the spawn and the kill runs between the two. The start is a
// pooled wake like any other, so this pins its place in the order.
func TestKillAtSpawnInstant(t *testing.T) {
	want := []string{
		"killed@0",
		"victim started@0",
		"same-instant event@0",
		"victim unwound@0",
	}
	for _, from := range []string{"caller", "spawner"} {
		t.Run(from, func(t *testing.T) {
			e := NewEngine()
			var log []string
			note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, int64(e.Now()))) }
			spawn := func() {
				v := e.Go("victim", func(p *Proc) {
					defer note("victim unwound")
					note("victim started")
					p.Sleep(5)
					note("victim woke")
				})
				e.Post(0, func() { note("same-instant event") })
				v.Kill()
				note("killed")
			}
			if from == "caller" {
				spawn()
			} else {
				e.Go("spawner", func(p *Proc) { spawn() })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(log) != fmt.Sprint(want) {
				t.Errorf("log %v, want %v", log, want)
			}
			if parked := parkedProcs(e); len(parked) != 0 {
				t.Errorf("still parked: %v", parked)
			}
			// The victim's sleep wake still fires, as a no-op.
			if e.Now() != 5 {
				t.Errorf("clock %v, want 5", e.Now())
			}
		})
	}
}

// TestEventPoolDoesNotCrossContaminate drives the pooled wake path and a
// late public-event Cancel together: canceling a public event after it
// fired must stay a no-op even while the pool recycles internal events
// underneath.
func TestEventPoolDoesNotCrossContaminate(t *testing.T) {
	e := NewEngine()
	fired := 0
	pub := e.At(5, func() { fired++ })
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pub.Cancel() // late cancel: must not touch recycled pool events
	if fired != 1 {
		t.Errorf("public event fired %d times, want 1", fired)
	}
	if !pub.canceled {
		t.Error("the late cancel left no canceled mark")
	}
	// The engine must still run cleanly after the late cancel.
	e.At(e.Now()+10, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("post-cancel event fired %d times, want 2", fired)
	}
}

// TestSchedStatsCountsDispatchesAndPeak checks the scheduler's own health
// numbers — what scalesweep reports — and that they stay out of the metrics
// registry, so no experiment's metrics artifact carries a sim/* entry.
func TestSchedStatsCountsDispatchesAndPeak(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {})
	}
	ev := e.At(100, func() {})
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.Dispatched != 10 {
		t.Errorf("Dispatched = %d, want 10 (the canceled event does not count)", st.Dispatched)
	}
	if st.PeakHeapLen < 10 {
		t.Errorf("PeakHeapLen = %d, want >= 10", st.PeakHeapLen)
	}
	snap := e.MetricsSnapshot()
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "sim/") {
			t.Errorf("engine registered %q", c.Name)
		}
	}
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "sim/") {
			t.Errorf("engine registered %q", g.Name)
		}
	}
}

// TestHeapOrderAfterCompaction floods the heap, cancels a majority in
// scattered positions to force compactions, and checks the survivors
// still fire in exact (time, seq) order.
func TestHeapOrderAfterCompaction(t *testing.T) {
	e := NewEngine()
	var got []int
	const n = 1000
	events := make([]*Event, n)
	for i := 0; i < n; i++ {
		i := i
		// Deliberately non-monotone times: t = (i*7919) mod n.
		at := Time((i * 7919) % n)
		events[i] = e.At(at, func() { got = append(got, i) })
	}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			events[i].Cancel()
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.SchedStats().Compactions == 0 {
		t.Fatal("test did not force a compaction")
	}
	var lastAt Time = -1
	var lastSeq = -1
	for _, i := range got {
		at := Time((i * 7919) % n)
		if at < lastAt || (at == lastAt && i < lastSeq) {
			t.Fatalf("events fired out of order after compaction: %v then %v", lastSeq, i)
		}
		lastAt, lastSeq = at, i
	}
	if want := (n + 2) / 3; len(got) != want {
		t.Fatalf("%d events fired, want %d", len(got), want)
	}
}

// PollEvery must be observationally identical to a Sleep-loop spin in
// virtual time: same resume tick, same dispatched-event count per sample.
func TestPollEveryMatchesSleepLoop(t *testing.T) {
	run := func(spin func(p *Proc, interval Time, check func() bool)) (Time, uint64) {
		e := NewEngine()
		flag := false
		var resumed Time
		e.Go("spinner", func(p *Proc) {
			spin(p, Microsecond, func() bool { return flag })
			resumed = p.Now()
		})
		e.After(10*Microsecond+300*Nanosecond, func() { flag = true })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return resumed, e.SchedStats().Dispatched
	}
	sleepAt, sleepEvents := run(func(p *Proc, interval Time, check func() bool) {
		for !check() {
			p.Sleep(interval)
		}
	})
	pollAt, pollEvents := run(func(p *Proc, interval Time, check func() bool) {
		p.PollEvery(interval, check)
	})
	if pollAt != sleepAt {
		t.Errorf("PollEvery resumed at %v, sleep loop at %v", pollAt, sleepAt)
	}
	if pollEvents != sleepEvents {
		t.Errorf("PollEvery dispatched %d events, sleep loop %d", pollEvents, sleepEvents)
	}
}

// A process killed while parked in PollEvery must unwind promptly, and the
// orphaned sample chain must stop re-arming (the engine drains and halts).
func TestPollEveryKilledPoller(t *testing.T) {
	e := NewEngine()
	unwound := false
	var victim *Proc
	victim = e.Go("poller", func(p *Proc) {
		defer func() { unwound = true }()
		p.PollEvery(Microsecond, func() bool { return false })
	})
	e.After(5*Microsecond, func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !unwound {
		t.Fatal("killed poller did not unwind")
	}
	if e.Now() > 10*Microsecond {
		t.Errorf("engine ran to %v after the kill: the poll chain kept re-arming", e.Now())
	}
}
