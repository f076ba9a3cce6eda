package sim

import (
	"sort"
	"strings"
	"testing"
)

// parkedProcs describes every live process currently parked, with its
// blocking site, sorted.
func parkedProcs(e *Engine) []string {
	var out []string
	for p := range e.procs {
		if p.parkedAt != "" {
			out = append(out, p.name+" ("+p.parkedAt+")")
		}
	}
	sort.Strings(out)
	return out
}

func TestParkedIntrospection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("waiter", func(p *Proc) { c.Wait(p) })
	e.At(10, func() {
		parked := parkedProcs(e)
		if len(parked) != 1 || !strings.Contains(parked[0], "waiter") {
			t.Errorf("parked = %v", parked)
		}
		c.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := parkedProcs(e); len(got) != 0 {
		t.Errorf("parked after completion = %v", got)
	}
}

func TestDaemonProcsDoNotDeadlock(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("service", func(p *Proc) {
		p.SetDaemon(true)
		c.Wait(p) // parked forever, but a daemon
	})
	e.Go("work", func(p *Proc) { p.Sleep(10) })
	if err := e.Run(); err != nil {
		t.Fatalf("daemon park reported as deadlock: %v", err)
	}
}

func TestMixedDaemonAndStuckProcStillDeadlocks(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("service", func(p *Proc) {
		p.SetDaemon(true)
		c.Wait(p)
	})
	e.Go("stuck", func(p *Proc) { c.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("non-daemon stuck proc not reported")
	} else if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("error %v does not name the stuck proc", err)
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	ev1 := e.At(10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	ev1.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending after cancel = %d", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKillWhileQueueWaiting(t *testing.T) {
	// Killing a process parked in Queue.Get must not swallow later items:
	// live consumers still receive everything.
	e := NewEngine()
	q := NewQueue[int](e, "q")
	victim := e.Go("victim", func(p *Proc) { q.Get(p) })
	var got []int
	e.Go("survivor", func(p *Proc) {
		p.Sleep(20)
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.At(5, func() { victim.Kill() })
	e.At(30, func() { q.Put(1); q.Put(2); q.Put(3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("survivor got %v", got)
	}
}

// Sleep(0) yields: it reschedules the process at the current time, after
// the same-time events already queued.
func TestYield(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1,b1,a2"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}
