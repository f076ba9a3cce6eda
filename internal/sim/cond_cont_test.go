package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// waitRole is what one waiter does in the schedules below.
type waitRole int

const (
	plainWait     waitRole = iota // waits twice, as a process or a continuation
	timeoutWait                   // a process in WaitTimeout (GetTimeout), twice
	killedWait                    // a process killed at stop
	cancelledWait                 // a continuation cancelled at stop; in the all-process run, a process killed then
)

type waitSpec struct {
	name   string
	role   waitRole
	arrive Time
	stop   Time // kill or cancel instant; for timeoutWait, the timeout
	cont   bool
}

// waitSchedule is a seeded mix of waiters on one Cond (woken by Signal and
// Broadcast at pokes) or one Queue (fed one Put per poke).
type waitSchedule struct {
	queue     bool
	waits     []waitSpec
	pokes     []Time
	broadcast []bool
}

type waitOutcome struct {
	Log        []string
	End        Time
	Waiting    int
	Dispatched uint64
}

// play runs s. The continuation form of a waiter posts, step for step, the
// events its process form does — the zero-delay start Go posts, the arrival
// sleep — and then waits with WaitFn (a Getter) where the process calls
// Wait (Get).
func (s waitSchedule) play(t *testing.T) waitOutcome {
	e := NewEngine()
	c := NewCond(e)
	q := NewQueue[int](e, "q")
	var o waitOutcome
	log := func(name, what string) { o.Log = append(o.Log, fmt.Sprintf("%v %s %s", e.Now(), name, what)) }
	for _, w := range s.waits {
		w := w
		if w.cont {
			stopped, left := false, 2
			var start, cancel func()
			if s.queue {
				var g *Getter[int]
				g = q.NewGetter(func(v int) {
					log(w.name, fmt.Sprint("got ", v))
					if left--; left > 0 {
						g.Get()
					}
				})
				start, cancel = g.Get, g.Cancel
			} else {
				var cw *Waiter
				cw = NewWaiter(func() {
					log(w.name, "woken")
					if left--; left > 0 {
						c.WaitFn(cw)
					}
				})
				start, cancel = func() { c.WaitFn(cw) }, cw.Cancel
			}
			e.Post(0, func() {
				e.Post(w.arrive, func() {
					if !stopped {
						start()
					}
				})
			})
			if w.role == cancelledWait {
				e.At(w.stop, func() {
					stopped = true
					cancel()
				})
			}
			continue
		}
		p := e.Go(w.name, func(p *Proc) {
			p.SetDaemon(true)
			p.Sleep(w.arrive)
			for i := 0; i < 2; i++ {
				switch {
				case w.role == timeoutWait && s.queue:
					if v, ok := q.GetTimeout(p, w.stop); ok {
						log(w.name, fmt.Sprint("got ", v))
					} else {
						log(w.name, "timeout")
					}
				case w.role == timeoutWait:
					if c.WaitTimeout(p, w.stop) {
						log(w.name, "woken")
					} else {
						log(w.name, "timeout")
					}
				case s.queue:
					log(w.name, fmt.Sprint("got ", q.Get(p)))
				default:
					c.Wait(p)
					log(w.name, "woken")
				}
			}
		})
		if w.role == killedWait || w.role == cancelledWait {
			e.At(w.stop, p.Kill)
		}
	}
	for i, at := range s.pokes {
		i, bcast := i, s.broadcast[i]
		e.At(at, func() {
			switch {
			case s.queue:
				q.Put(i)
			case bcast:
				c.Broadcast()
			default:
				c.Signal()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	o.End, o.Waiting, o.Dispatched = e.Now(), c.n+q.cond.n, e.SchedStats().Dispatched
	return o
}

// A continuation waits in the same FIFO as the processes, is woken by the
// same Signal, Broadcast or Put in its turn among them, and costs the
// same events: whatever mix of the two forms plays a seeded schedule —
// ties between arrivals, pokes and timeouts included, beside WaitTimeout
// neighbours and a process killed while it waits — every wake and every
// item lands at the same time, in the same order, with the same waiters
// left over. The one event the all-process run has on top is the Kill
// that stands in for the cancelled continuation: a Cancel posts nothing.
func TestCondContinuationsMatchProcesses(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 60; round++ {
		s := waitSchedule{queue: round%2 == 1}
		for i := 0; i < 10; i++ {
			w := waitSpec{name: fmt.Sprintf("w%d", i), arrive: Time(rng.Intn(6)) * 10}
			switch i {
			case 0, 1:
				w.role, w.stop = timeoutWait, Time(1+rng.Intn(4))*10
			case 2:
				w.role, w.stop = killedWait, Time(rng.Intn(8))*10+5 // off the poke grid: no same-instant ties to resolve
			case 3:
				w.role, w.stop = cancelledWait, Time(rng.Intn(8))*10+5
			}
			s.waits = append(s.waits, w)
		}
		for i := 0; i < 14; i++ {
			s.pokes = append(s.pokes, Time(rng.Intn(9))*10)
			s.broadcast = append(s.broadcast, rng.Intn(5) == 0)
		}
		want := s.play(t) // all processes
		want.Dispatched--
		if len(want.Log) == 0 {
			t.Fatalf("round %d: nobody was woken", round)
		}
		for _, mix := range []struct {
			name string
			cont func(i int) bool
		}{
			{"all continuations", func(int) bool { return true }},
			{"alternating", func(i int) bool { return i%2 == 0 }},
			{"random", func(int) bool { return rng.Intn(2) == 0 }},
		} {
			for i := range s.waits {
				switch s.waits[i].role {
				case plainWait:
					s.waits[i].cont = mix.cont(i)
				case cancelledWait:
					s.waits[i].cont = true
				}
			}
			if got := s.play(t); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d (queue=%v), %s:\n got  %+v\n want %+v", round, s.queue, mix.name, got, want)
			}
			for i := range s.waits {
				s.waits[i].cont = false
			}
		}
	}
}

// A Signal that reaches a continuation is spent on it even when the
// continuation is cancelled before its wake runs — as a signal is on a
// process killed after being woken — while one that finds it already
// withdrawn goes to the next waiter.
func TestWaiterCancelAfterSignalSpendsIt(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cancelFirst bool
		want        []string
	}{
		{"cancel then signal", true, []string{"b"}},
		{"signal then cancel", false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			c := NewCond(e)
			var woken []string
			a := NewWaiter(func() { woken = append(woken, "a") })
			b := NewWaiter(func() { woken = append(woken, "b") })
			c.WaitFn(a)
			c.WaitFn(b)
			e.At(10, func() {
				if tc.cancelFirst {
					a.Cancel()
				}
				c.Signal()
				a.Cancel()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(woken, tc.want) {
				t.Errorf("woken %v, want %v", woken, tc.want)
			}
			if n := e.SchedStats().Dispatched; n != 1+uint64(len(tc.want)) {
				t.Errorf("%d events dispatched: a cancelled wake must not run", n)
			}
			c.WaitFn(a) // a cancelled waiter can wait again
			c.Broadcast()
			if err := e.Run(); err != nil || len(woken) == 0 || woken[len(woken)-1] != "a" {
				t.Errorf("re-enlisted waiter: woken %v, err %v", woken, err)
			}
		})
	}
}

// A continuation's wait costs no goroutine: however many of them wait and
// are woken, the baton never leaves the Run caller.
func TestCondContinuationsNeverSwitch(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	got := 0
	for i := 0; i < 50; i++ {
		var g *Getter[int]
		g = q.NewGetter(func(int) {
			got++
			g.Get()
		})
		g.Get()
	}
	for i := 0; i < 1000; i++ {
		e.At(Time(i), func() { q.Put(i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.SchedStats(); got != 1000 || s.Handoffs != 0 {
		t.Errorf("%d items taken with %d handoffs, want 1000 with 0", got, s.Handoffs)
	}
}
