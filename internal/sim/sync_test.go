package sim

import "testing"

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var order []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		e.Go(n, func(p *Proc) {
			c.Wait(p)
			order = append(order, n)
		})
	}
	e.At(10, func() { c.Signal() })
	e.At(20, func() { c.Signal() })
	e.At(30, func() { c.Signal() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("wake order = %v, want [a b c]", order)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 7; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.At(5, func() {
		if c.n != 7 {
			t.Errorf("%d waiters, want 7", c.n)
		}
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 7 {
		t.Errorf("woken = %d, want 7", woken)
	}
}

func TestCondSignalOnEmptyIsNoop(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	c.Signal()
	c.Broadcast()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondWaitTimeoutExpires(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woken bool
	var at Time
	e.Go("w", func(p *Proc) {
		woken = c.WaitTimeout(p, 100*Microsecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken {
		t.Error("WaitTimeout reported woken, want timeout")
	}
	if at != 100*Microsecond {
		t.Errorf("resumed at %v, want 100us", at)
	}
	if c.n != 0 {
		t.Errorf("timed-out waiter still registered: %d waiters", c.n)
	}
}

func TestCondWaitTimeoutSignaled(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woken bool
	var at Time
	e.Go("w", func(p *Proc) {
		woken = c.WaitTimeout(p, 100*Microsecond)
		at = p.Now()
	})
	e.At(30*Microsecond, func() { c.Signal() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Error("WaitTimeout reported timeout, want woken")
	}
	if at != 30*Microsecond {
		t.Errorf("resumed at %v, want 30us", at)
	}
}

func TestResourceFIFOContention(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var order []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		e.Go(n, func(p *Proc) {
			r.Acquire(p)
			order = append(order, n+"-acq")
			p.Sleep(10 * Microsecond)
			r.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a-acq", "b-acq", "c-acq"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30*Microsecond {
		t.Errorf("serialized holds ended at %v, want 30us", e.Now())
	}
	if r.acquires != 3 {
		t.Errorf("%d acquires, want 3", r.acquires)
	}
}

func TestResourceReleaseByNonHolderPanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	e.Go("a", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release(p)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(10)
		defer func() {
			if recover() == nil {
				t.Error("Release by non-holder did not panic")
			}
		}()
		r.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	e.Go("a", func(p *Proc) {
		r.Use(p, 25*Microsecond)
		p.Sleep(75 * Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(); u < 0.24 || u > 0.26 {
		t.Errorf("Utilization() = %v, want ~0.25", u)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
			q.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e, "q")
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	q.Put("x")
	q.Put("y")
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	if v, ok := q.TryGet(); !ok || v != "x" {
		t.Errorf("TryGet = %q,%v", v, ok)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	e.Go("consumer", func(p *Proc) {
		if _, ok := q.GetTimeout(p, 10*Microsecond); ok {
			t.Error("GetTimeout on empty queue reported ok")
		}
		if p.Now() != 10*Microsecond {
			t.Errorf("timeout returned at %v, want 10us", p.Now())
		}
		v, ok := q.GetTimeout(p, 100*Microsecond)
		if !ok || v != 42 {
			t.Errorf("GetTimeout = %d,%v, want 42,true", v, ok)
		}
	})
	e.At(20*Microsecond, func() { q.Put(42) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueMultipleConsumersEachItemOnce(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	seen := make(map[int]int)
	for i := 0; i < 3; i++ {
		e.Go("c", func(p *Proc) {
			for {
				v, ok := q.GetTimeout(p, 50*Microsecond)
				if !ok {
					return
				}
				seen[v]++
			}
		})
	}
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			q.Put(i)
			p.Sleep(Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("saw %d distinct items, want 20", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("item %d delivered %d times", v, n)
		}
	}
}
