package hostcpu

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/hw"
	"repro/internal/sim"
)

func newCPU(e *sim.Engine) *CPU {
	return New(e, hw.Default(), bus.New(e, "pci"))
}

func TestMMIOCostsMatchPaper(t *testing.T) {
	e := sim.NewEngine()
	c := newCPU(e)
	var readT, writeT sim.Time
	e.Go("m", func(p *sim.Proc) {
		start := p.Now()
		c.MMIORead(p)
		readT = p.Now() - start
		start = p.Now()
		c.MMIOWrite(p)
		writeT = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readT != sim.Micros(0.422) {
		t.Errorf("MMIO read = %v, want 0.422us (paper §5.2)", readT)
	}
	if writeT != sim.Micros(0.121) {
		t.Errorf("MMIO write = %v, want 0.121us (paper §5.2)", writeT)
	}
}

func TestPostSendRequestCost(t *testing.T) {
	// §5.2: posting a send request costs at least 0.5 us using only
	// writes. A minimal request is a handful of words.
	e := sim.NewEngine()
	c := newCPU(e)
	var cost sim.Time
	e.Go("m", func(p *sim.Proc) {
		start := p.Now()
		c.MMIOWriteWords(p, 5) // len, proxy addr, src addr, flags, doorbell
		cost = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cost < sim.Micros(0.5) || cost > sim.Micros(1.0) {
		t.Errorf("posting cost = %v, want [0.5us, 1.0us]", cost)
	}
}

func TestMMIOWriteBytesRoundsUpToWords(t *testing.T) {
	e := sim.NewEngine()
	c := newCPU(e)
	var t5, t8 sim.Time
	e.Go("m", func(p *sim.Proc) {
		s := p.Now()
		c.MMIOWriteBytes(p, 5)
		t5 = p.Now() - s
		s = p.Now()
		c.MMIOWriteBytes(p, 8)
		t8 = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t5 != 2*sim.Micros(0.121) {
		t.Errorf("5 bytes = %v, want 2 word writes", t5)
	}
	if t8 != 2*sim.Micros(0.121) {
		t.Errorf("8 bytes = %v, want 2 word writes", t8)
	}
}

func TestBcopyBandwidth(t *testing.T) {
	// §5.4: bcopy bandwidth ~50 MB/s.
	e := sim.NewEngine()
	c := newCPU(e)
	var cost sim.Time
	const n = 1 << 20
	e.Go("m", func(p *sim.Proc) {
		start := p.Now()
		c.Bcopy(p, n)
		cost = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mbps := float64(n) / cost.Seconds() / 1e6
	if mbps < 48 || mbps > 52 {
		t.Errorf("bcopy = %.1f MB/s, want ~50", mbps)
	}
}

func TestBcopyZeroIsFree(t *testing.T) {
	e := sim.NewEngine()
	c := newCPU(e)
	e.Go("m", func(p *sim.Proc) {
		start := p.Now()
		c.Bcopy(p, 0)
		if p.Now() != start {
			t.Error("Bcopy(0) consumed time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpinWaitObservesFlag(t *testing.T) {
	e := sim.NewEngine()
	c := newCPU(e)
	flag := false
	var resumed sim.Time
	e.Go("spinner", func(p *sim.Proc) {
		c.SpinWait(p, func() bool { return flag })
		resumed = p.Now()
	})
	e.At(10*sim.Microsecond, func() { flag = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed < 10*sim.Microsecond || resumed > 11*sim.Microsecond {
		t.Errorf("spinner resumed at %v, want shortly after 10us", resumed)
	}
}

// Spin resumes on the tick SpinWait does, evaluates a handful of samples
// instead of a hundred — under a watch of its own only the one after the
// store, whatever else the engine dispatches — and reports a deadline it
// ran into.
func TestSpinElidesAndHonorsDeadline(t *testing.T) {
	run := func(spin func(c *CPU, p *sim.Proc, watch *uint64, check func() bool)) (resumed sim.Time, samples int) {
		e := sim.NewEngine() // no VerifySkips: it would call the counting predicate
		c := newCPU(e)
		flag := false
		var version uint64
		e.Go("spinner", func(p *sim.Proc) {
			spin(c, p, &version, func() bool { samples++; return flag })
			resumed = p.Now()
		})
		for at := sim.Microsecond; at < 10*sim.Microsecond; at += sim.Microsecond {
			e.At(at+70, func() {}) // events that store nothing
		}
		e.At(10*sim.Microsecond+30, func() { flag = true; version++ })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return resumed, samples
	}
	wantAt, legacySamples := run(func(c *CPU, p *sim.Proc, _ *uint64, check func() bool) { c.SpinWait(p, check) })
	for _, scoped := range []bool{false, true} {
		ceiling := 12 // the first, one after each event
		if scoped {
			ceiling = 2 // the first, and the one after the store
		}
		gotAt, samples := run(func(c *CPU, p *sim.Proc, watch *uint64, check func() bool) {
			if !scoped {
				watch = nil
			}
			if !c.Spin(p, 0, watch, check) {
				t.Error("unbounded Spin reported a timeout")
			}
		})
		if gotAt != wantAt {
			t.Errorf("scoped %v: Spin resumed at %v, SpinWait at %v", scoped, gotAt, wantAt)
		}
		if samples > ceiling || legacySamples < 100 {
			t.Errorf("scoped %v: Spin evaluated %d samples (SpinWait %d), want at most %d", scoped, samples, legacySamples, ceiling)
		}
	}

	e := sim.NewEngine()
	c := newCPU(e)
	e.Go("spinner", func(p *sim.Proc) {
		if c.Spin(p, 5*sim.Microsecond, nil, func() bool { return false }) {
			t.Error("Spin past its deadline reported success")
		}
		if p.Now() != 5*sim.Microsecond {
			t.Errorf("timed out at %v, want 5 us", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMMIOContendsWithOtherBusTraffic(t *testing.T) {
	e := sim.NewEngine()
	b := bus.New(e, "pci")
	c := New(e, hw.Default(), b)
	var done sim.Time
	e.Go("dma-hog", func(p *sim.Proc) {
		b.Use(p, 20*sim.Microsecond)
	})
	e.Go("cpu", func(p *sim.Proc) {
		p.Sleep(1 * sim.Microsecond)
		c.MMIOWrite(p)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done < 20*sim.Microsecond {
		t.Errorf("MMIO write finished at %v, want queued behind bus hog", done)
	}
}
