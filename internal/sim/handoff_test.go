package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Tests of the baton: who drives the event loop, what a goroutine switch
// costs in tokens, and what must hold when a callback runs on a goroutine
// that belongs to a parked process.

// panicOf runs fn and returns what it panicked with, nil if it did not.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// A lone process that sleeps never leaves its goroutine: every wake is
// dispatched by the sleeper itself. The run costs the token that starts
// the process and the one that returns the baton, however long it is.
func TestLoneSleeperNeverSwitches(t *testing.T) {
	e := NewEngine()
	const naps = 1000
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < naps; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.SchedStats()
	if st.Handoffs > 2 {
		t.Errorf("%d sleeps cost %d handoffs, want at most 2", naps, st.Handoffs)
	}
	if st.SelfResumes != naps {
		t.Errorf("%d self-resumes, want %d", st.SelfResumes, naps)
	}
}

// Two processes that wake each other in turn cost exactly one token per
// switch: the parking one dispatches the other's wake and passes the baton
// straight to it.
func TestPingPongCostsOneHandoffPerSwitch(t *testing.T) {
	e := NewEngine()
	ping, pong := NewQueue[int](e, "ping"), NewQueue[int](e, "pong")
	const warm, rounds = 10, 500
	var before, after SchedStats
	e.Go("a", func(p *Proc) {
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				before = e.SchedStats()
			}
			ping.Put(i)
			pong.Get(p)
		}
		after = e.SchedStats()
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < warm+rounds; i++ {
			pong.Put(ping.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := after.Handoffs - before.Handoffs; got != 2*rounds {
		t.Errorf("%d round trips (two switches each) cost %d handoffs, want %d", rounds, got, 2*rounds)
	}
	if got := after.SelfResumes - before.SelfResumes; got != 0 {
		t.Errorf("%d self-resumes in a strict alternation, want 0", got)
	}
}

// A panic in a callback is a bug in the model, not in whichever process
// happened to be parked on the goroutine that dispatched it: it must come
// out of Run on the caller's goroutine, with its value, and no process may
// unwind on the way.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	c := NewCond(e)
	unwound := 0
	e.Go("holder", func(p *Proc) {
		defer func() { unwound++ }()
		r.Use(p, Second) // deferred Release
	})
	e.Go("waiter", func(p *Proc) {
		defer func() { unwound++ }()
		c.Wait(p) // deferred Cond.finish
	})
	type boom struct{ n int }
	later := false
	// Both processes are parked by now, so one of their goroutines runs this.
	e.After(10, func() { panic(boom{42}) })
	e.After(20, func() { later = true })

	got := panicOf(func() { e.Run() })
	if got != (boom{42}) {
		t.Fatalf("recover() around Run returned %v, want the callback's panic value", got)
	}
	if unwound != 0 {
		t.Errorf("%d process(es) unwound by a panic that was not theirs", unwound)
	}
	if !r.Busy() || c.n != 1 || len(parkedProcs(e)) != 2 {
		t.Errorf("processes disturbed: resource busy=%v, cond waiters=%d, parked=%v", r.Busy(), c.n, parkedProcs(e))
	}
	if later || e.Now() != 10 {
		t.Errorf("the run went on after the panic (clock %v)", e.Now())
	}

	// The engine is intact: the baton is back, the rest of the schedule runs.
	e.After(0, c.Signal)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if unwound != 2 || !later || r.Busy() {
		t.Errorf("after resuming: unwound=%d later=%v busy=%v", unwound, later, r.Busy())
	}
}

// A callback that ends its goroutine (t.FailNow called off the test's
// goroutine does) would take the baton with it and hang Run.
func TestCallbackGoexitSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.Sleep(Second) })
	e.After(10, runtime.Goexit)
	got := panicOf(func() { e.Run() })
	if s, _ := got.(string); !strings.Contains(s, "Goexit") {
		t.Fatalf("recover() around Run returned %v, want the engine's Goexit report", got)
	}
}

// Proc methods belong to the process's own goroutine. A callback that
// sleeps "for" a process would run a second event loop inside the first.
func TestBlockingOutsideOwnGoroutinePanics(t *testing.T) {
	wantRule := func(where string, v any) {
		t.Helper()
		if s, _ := v.(string); !strings.Contains(s, "outside its own goroutine") || !strings.Contains(s, "victim") {
			t.Errorf("%s: panic %q does not name the rule and the process", where, v)
		}
	}
	e := NewEngine()
	c := NewCond(e)
	q := e.Go("victim", func(p *Proc) { c.Wait(p) })
	e.Go("other", func(p *Proc) { p.Sleep(Second) })
	e.After(10, func() { q.Sleep(5) })
	wantRule("callback", panicOf(func() { e.Run() }))
	// Between runs nothing is executing either.
	wantRule("between runs", panicOf(func() { c.Wait(q) }))
}

// stepModel is a small model with every kind of dispatch in it — spawn,
// wake, callback, condition timeout, poll sample — logging (when, what).
func stepModel() (e *Engine, log *[]string) {
	e = NewEngine()
	log = new([]string)
	note := func(format string, args ...any) {
		*log = append(*log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	c := NewCond(e)
	flag := false
	e.Go("a", func(p *Proc) {
		note("a starts")
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			note("a nap %d", i)
			c.Signal()
		}
		flag = true
	})
	e.Go("b", func(p *Proc) {
		note("b starts")
		for i := 0; i < 4; i++ {
			note("b woken=%v", c.WaitTimeout(p, 15))
		}
		p.PollUntil(7, 0, nil, func() bool { return flag })
		note("b sees flag")
	})
	e.At(12, func() { note("callback") })
	return e, log
}

func TestStepRunsResumedProcessToItsNextPark(t *testing.T) {
	e, log := stepModel()
	steps := 0
	for {
		before, logged := e.SchedStats(), len(*log)
		if !e.Step() {
			break
		}
		steps++
		st := e.SchedStats()
		if st.Dispatched != before.Dispatched+1 {
			t.Fatalf("step %d dispatched %d events", steps, st.Dispatched-before.Dispatched)
		}
		switch steps {
		case 1: // a's spawn: the body runs to its first Sleep
			if !reflect.DeepEqual(*log, []string{"0 a starts"}) || !reflect.DeepEqual(parkedProcs(e), []string{"a (sleep)"}) {
				t.Fatalf("after step 1: log %v, parked %v", *log, parkedProcs(e))
			}
		case 2: // b's spawn: to its first WaitTimeout
			if !reflect.DeepEqual(*log, []string{"0 a starts", "0 b starts"}) ||
				!reflect.DeepEqual(parkedProcs(e), []string{"a (sleep)", "b (cond wait (timeout))"}) {
				t.Fatalf("after step 2: log %v, parked %v", *log, parkedProcs(e))
			}
		case 3: // a's wake at 10: one nap, one signal, parked again
			if e.Now() != 10 || len(*log) != logged+1 || (*log)[logged] != "10 a nap 0" || len(parkedProcs(e)) != 2 {
				t.Fatalf("after step 3: clock %v, log %v, parked %v", e.Now(), *log, parkedProcs(e))
			}
		}
		// The baton is back: the caller may touch the engine.
		e.At(e.Now(), func() {}).Cancel()
	}
	if len(parkedProcs(e)) != 0 || e.Pending() != 0 {
		t.Fatalf("Step reported nothing left with %v parked, %d pending", parkedProcs(e), e.Pending())
	}

	ref, want := stepModel()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*log, *want) || e.Now() != ref.Now() {
		t.Errorf("stepped run differs from Run:\n stepped %v (clock %v)\n run     %v (clock %v)", *log, e.Now(), *want, ref.Now())
	}
	if got := ref.SchedStats().Dispatched; uint64(steps) < got {
		t.Errorf("%d steps for a run of %d dispatches", steps, got)
	}
}

// Step, RunUntil and Run on one engine, in turn: each starts driving on
// the caller's goroutine whatever goroutine the last one ended on.
func TestStepRunUntilRunInterleave(t *testing.T) {
	e, log := stepModel()
	for i := 0; i < 3; i++ {
		if !e.Step() {
			t.Fatal("Step found nothing to do")
		}
	}
	if err := e.RunUntil(17); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 17 {
		t.Fatalf("clock at %v after RunUntil(17)", e.Now())
	}
	for i := 0; i < 2; i++ {
		if !e.Step() {
			t.Fatal("Step found nothing to do")
		}
	}
	if err := e.RunUntil(e.Now() + 6); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Step() {
		t.Error("Step ran something after Run drained the engine")
	}
	ref, want := stepModel()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*log, *want) || e.Now() != ref.Now() {
		t.Errorf("interleaved run differs from Run:\n interleaved %v (clock %v)\n run         %v (clock %v)", *log, e.Now(), *want, ref.Now())
	}
}

// Run from inside the simulation would start a second loop on a goroutine
// that already holds the baton.
func TestNestedRunPanics(t *testing.T) {
	e := NewEngine()
	e.After(1, func() { e.Run() })
	if s, _ := panicOf(func() { e.Run() }).(string); !strings.Contains(s, "inside the simulation") {
		t.Errorf("nested Run: recovered %q", s)
	}
}
