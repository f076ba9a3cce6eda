package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// claimant is one user of a resource in the tests below: it shows up at
// arrive, holds the resource for hold, and is a process or a continuation.
type claimant struct {
	name         string
	arrive, hold Time
	cont         bool
}

// claim runs c against r and calls granted and released at those moments.
// The process form is Engine.Go, Sleep, Acquire, Sleep, Release; the
// continuation form posts, step for step, the events the process form
// does: the zero-delay start Go posts, the arrival sleep, (inside
// AcquireFn) the zero-delay grant of a contended release, the hold.
func (c claimant) claim(e *Engine, r *Resource, granted, released func()) *Proc {
	if !c.cont {
		return e.Go(c.name, func(p *Proc) {
			p.Sleep(c.arrive)
			r.Acquire(p)
			granted()
			p.Sleep(c.hold)
			r.Release(p)
			released()
		})
	}
	e.Post(0, func() {
		e.Post(c.arrive, func() {
			r.AcquireFn(c.name, func() {
				granted()
				e.Post(c.hold, func() {
					r.ReleaseFn(c.name)
					released()
				})
			})
		})
	})
	return nil
}

// A continuation waits in the same queue as the processes, is granted in
// arrival order among them, and accounts exactly like one: whichever mix
// of the two forms plays a schedule of claims — same-instant arrivals
// included — every grant and release lands at the same time in the same
// order, after the same number of events.
func TestResourceContinuationsMatchProcesses(t *testing.T) {
	type outcome struct {
		Log        []string
		End        Time
		Acquires   int64
		Util       float64
		Dispatched uint64
	}
	play := func(cs []claimant) outcome {
		e := NewEngine()
		r := NewResource(e, "bus")
		var o outcome
		for _, c := range cs {
			c := c
			c.claim(e, r,
				func() { o.Log = append(o.Log, fmt.Sprintf("%v %s granted", e.Now(), c.name)) },
				func() { o.Log = append(o.Log, fmt.Sprintf("%v %s released", e.Now(), c.name)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if r.Busy() {
			t.Fatal("resource still held after the run")
		}
		o.End, o.Acquires, o.Util, o.Dispatched = e.Now(), r.acquires, r.Utilization(), e.SchedStats().Dispatched
		return o
	}

	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 40; round++ {
		cs := make([]claimant, 12)
		for i := range cs {
			cs[i] = claimant{
				name:   fmt.Sprintf("c%d", i),
				arrive: Time(rng.Intn(6)) * 10, // few distinct instants: ties are the point
				hold:   Time(1+rng.Intn(3)) * 7,
			}
		}
		want := play(cs) // all processes
		if want.Acquires != int64(len(cs)) {
			t.Fatalf("round %d: %d acquires for %d claimants", round, want.Acquires, len(cs))
		}
		for _, mix := range []struct {
			name string
			cont func(i int) bool
		}{
			{"all continuations", func(int) bool { return true }},
			{"alternating", func(i int) bool { return i%2 == 0 }},
			{"random", func(int) bool { return rng.Intn(2) == 0 }},
		} {
			for i := range cs {
				cs[i].cont = mix.cont(i)
			}
			if got := play(cs); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %s:\n got  %+v\n want %+v", round, mix.name, got, want)
			}
		}
	}
}

// A continuation's claim costs no goroutine: however many of them contend,
// the baton only ever goes back to the Run caller.
func TestResourceContinuationsNeverSwitch(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	released := 0
	for i := 0; i < 100; i++ {
		claimant{name: "c", hold: 5, cont: true}.claim(e, r, func() {}, func() { released++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.SchedStats(); released != 100 || s.Handoffs != 0 || e.Now() != 500 {
		t.Errorf("%d released at %v with %d handoffs, want 100 at 500 with 0", released, e.Now(), s.Handoffs)
	}
}

// A process killed while it waits is skipped when its turn comes, whatever
// kind of claim releases the resource and whatever kind is next in line.
func TestResourceQueueSurvivesKilledWaiter(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		holderCont, nextCont bool
	}{
		{"process, victim, process", false, false},
		{"continuation, victim, continuation", true, true},
		{"continuation, victim, process", true, false},
		{"process, victim, continuation", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			r := NewResource(e, "res")
			claimant{name: "holder", hold: 100, cont: tc.holderCont}.claim(e, r, func() {}, func() {})
			victim := claimant{name: "victim", arrive: 1, hold: 1}.claim(e, r,
				func() { t.Error("killed waiter acquired the resource") }, func() {})
			var at Time
			claimant{name: "next", arrive: 2, hold: 1, cont: tc.nextCont}.claim(e, r,
				func() { at = e.Now() }, func() {})
			e.At(10, func() { victim.Kill() })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if at != 100 {
				t.Errorf("next claim granted at %v, want 100: queue stalled behind the killed waiter", at)
			}
			if r.Busy() || r.acquires != 2 {
				t.Errorf("busy=%v acquires=%d after the run, want idle and 2", r.Busy(), r.acquires)
			}
		})
	}
}

// Whoever holds a resource has a name: a wedged or misused resource must
// say which claim it is stuck on, continuation or process.
func TestResourceNamesContinuationHolder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dma:lanai0:host")
	r.AcquireFn("lcp:0:hostdma", func() {})
	var byProc any
	e.Go("intruder", func(p *Proc) {
		byProc = panicOf(func() { r.Release(p) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	byOther := panicOf(func() { r.ReleaseFn("lcp:1:hostdma") })
	for _, msg := range []any{byProc, byOther} {
		s, _ := msg.(string)
		if !strings.Contains(s, "dma:lanai0:host") || !strings.Contains(s, "held by lcp:0:hostdma") {
			t.Errorf("panic %q does not name the resource and its continuation holder", s)
		}
	}
	r.ReleaseFn("lcp:0:hostdma")

	// And the other way round: a continuation cannot release a process's hold.
	var byCont any
	e.Go("owner", func(p *Proc) {
		r.Acquire(p)
		byCont = panicOf(func() { r.ReleaseFn("lcp:0:hostdma") })
		r.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s, _ := byCont.(string); !strings.Contains(s, "held by owner") {
		t.Errorf("panic %q does not name the process holder", s)
	}
	if got := panicOf(func() { r.ReleaseFn("lcp:0:hostdma") }); got == nil || !strings.Contains(got.(string), "<none>") {
		t.Errorf("release of an idle resource: %v", got)
	}
}
