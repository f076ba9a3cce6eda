package sim

import (
	"fmt"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestSameTimeTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("canceled event ran")
	}
	if !ev.canceled {
		t.Error("event not marked canceled after Cancel")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		ev := e.After(-5, func() {})
		if ev.Time() != 100 {
			t.Errorf("After(-5) scheduled at %v, want 100", ev.Time())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(got))
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want 25", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("remaining events did not run: got %v", got)
	}
}

// A canceled event at the top of the heap and inside the bound must not
// drag the next live event, which lies past the bound, into the run.
func TestRunUntilSkipsCanceledTopWithinBound(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(10, func() {}).Cancel()
	e.At(100, func() { ran = true })
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if ran || e.Now() != 50 {
		t.Fatalf("RunUntil(50) ran the event at 100: ran=%v clock=%v", ran, e.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1000 {
		t.Errorf("Now() = %v, want 1000", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(10, func() { n++; e.Stop() })
	e.At(20, func() { n++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("events run = %d, want 1 (Stop should halt)", n)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 5*Microsecond {
		t.Errorf("woke at %v, want 5us", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	mk := func(name string, start, step Time) {
		e.Go(name, func(p *Proc) {
			p.Sleep(start)
			for i := 0; i < 3; i++ {
				trace = append(trace, fmt.Sprintf("%s@%d", name, p.Now()/Microsecond))
				p.Sleep(step)
			}
		})
	}
	mk("a", 0, 10*Microsecond)
	mk("b", 5*Microsecond, 10*Microsecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@0", "b@5", "a@10", "b@15", "a@20", "b@25"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		c := NewCond(e)
		q := NewQueue[int](e, "q")
		r := NewResource(e, "bus")
		for i := 0; i < 5; i++ {
			i := i
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				r.Use(p, Time(i+1)*Microsecond)
				q.Put(i)
				c.Wait(p)
				trace = append(trace, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
			})
		}
		e.Go("collector", func(p *Proc) {
			for i := 0; i < 5; i++ {
				v := q.Get(p)
				trace = append(trace, fmt.Sprintf("got%d@%v", v, p.Now()))
			}
			c.Broadcast()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil error, want deadlock")
	}
}

func TestKillUnwindsWithDefers(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	cleaned := false
	p := e.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	e.At(10, func() { p.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Error("deferred cleanup did not run on Kill")
	}
}

func TestTimeHelpers(t *testing.T) {
	if Micros(9.8) != 9800*Nanosecond {
		t.Errorf("Micros(9.8) = %v", Micros(9.8))
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros() = %v, want 2.5", got)
	}
	if got := Second.Seconds(); got != 1.0 {
		t.Errorf("Seconds() = %v, want 1", got)
	}
	if s := Microsecond.String(); s != "1.000us" {
		t.Errorf("String() = %q", s)
	}
}
