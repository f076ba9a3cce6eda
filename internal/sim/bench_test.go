package sim

import "testing"

// Simulator-engine throughput benchmarks: these measure the harness, not
// the reproduced system (cmd/vmmcbench's experiments report that).

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	var schedule func()
	schedule = func() {
		n++
		if n < b.N {
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPingPongProcs(b *testing.B) {
	e := NewEngine()
	q1 := NewQueue[int](e, "q1")
	q2 := NewQueue[int](e, "q2")
	e.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Put(i)
			q2.Get(p)
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			v := q1.Get(p)
			q2.Put(v)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchmarkEventDispatchCancel measures dispatch throughput when a
// fraction of scheduled events is canceled before firing — the retransmit
// timer pattern. Canceled events must be compacted away, not dragged
// through every subsequent push and pop.
func benchmarkEventDispatchCancel(b *testing.B, cancelPercent int) {
	e := NewEngine()
	nop := func() {}
	n := 0
	var schedule func()
	schedule = func() {
		// A timer a little in the future, canceled cancelPercent of
		// the time before it can fire.
		timer := e.After(100, nop)
		if n%100 < cancelPercent {
			timer.Cancel()
		}
		if n++; n < b.N {
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEventDispatchCancel10(b *testing.B) { benchmarkEventDispatchCancel(b, 10) }
func BenchmarkEventDispatchCancel50(b *testing.B) { benchmarkEventDispatchCancel(b, 50) }

// BenchmarkWaitTimeoutChurn is the hot loop of a reliable sender: park
// with a timeout, get signaled (acked) first, cancel the timer, repeat.
func BenchmarkWaitTimeoutChurn(b *testing.B) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if !c.WaitTimeout(p, Second) {
				b.Fail()
				return
			}
		}
	})
	e.Go("signaler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
			c.Signal()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWakeStorm broadcasts to 64 parked processes per round — the
// all-to-all barrier pattern of the scalesweep. Cost per op is one full
// park/broadcast/wake cycle for all 64.
func BenchmarkWakeStorm(b *testing.B) {
	const procs = 64
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < procs; i++ {
		e.Go("w", func(p *Proc) {
			for j := 0; j < b.N; j++ {
				c.Wait(p)
			}
		})
	}
	e.Go("storm", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			for c.n < procs {
				p.Sleep(0)
			}
			c.Broadcast()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkResourceHandoff(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "r")
	for w := 0; w < 4; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Use(p, 1)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchmarkSpin parks the given number of pollers on a flag for b.N ticks
// of a 100 ns sampling grid while one real event fires every 10 ticks —
// roughly a receiver's view of a message in flight. An op is one grid
// tick across all pollers. The legacy primitive pays one heap event per
// poller per tick. The eliding one pays, per real event, one pass over the
// parked pollers (Engine.settle) plus one false sample for every poller
// whose watch the event moved: all of them under the engine's own counter
// (scoped false), one when each poller watches a version of its own and
// the event writes a single one (scoped true).
func benchmarkSpin(b *testing.B, pollers int, poll pollPrimitive, scoped bool) {
	const interval = 100 * Nanosecond
	e := NewEngine()
	released := false
	vers := make([]uint64, pollers)
	for i := 0; i < pollers; i++ {
		var watch *uint64
		if scoped {
			watch = &vers[i]
		}
		e.Go("spinner", func(p *Proc) {
			poll(p, interval, 0, watch, func() bool { return released })
		})
	}
	ticks := 0
	var event func()
	event = func() {
		if ticks += 10; ticks >= b.N {
			released = true
			for i := range vers {
				vers[i]++
			}
			return
		}
		vers[ticks/10%pollers]++
		e.After(10*interval, event)
	}
	e.After(10*interval, event)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSpinLegacy1(b *testing.B)  { benchmarkSpin(b, 1, pollLegacy, false) }
func BenchmarkSpinElided1(b *testing.B)  { benchmarkSpin(b, 1, pollElided, false) }
func BenchmarkSpinLegacy32(b *testing.B) { benchmarkSpin(b, 32, pollLegacy, false) }
func BenchmarkSpinElided32(b *testing.B) { benchmarkSpin(b, 32, pollElided, false) }
func BenchmarkSpinScoped32(b *testing.B) { benchmarkSpin(b, 32, pollElided, true) }
