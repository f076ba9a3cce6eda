package bus

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestDMAProfileCost(t *testing.T) {
	p := hw.DMAProfile{Setup: sim.Micros(2), Rate: 100e6}
	if got := p.Cost(0); got != sim.Micros(2) {
		t.Errorf("Cost(0) = %v, want 2us", got)
	}
	// 1e6 bytes at 100 MB/s = 10 ms.
	if got := p.Cost(1_000_000); got != sim.Micros(2)+10*sim.Millisecond {
		t.Errorf("Cost(1e6) = %v", got)
	}
	if got := p.Cost(-5); got != sim.Micros(2) {
		t.Errorf("Cost(-5) = %v, want setup only", got)
	}
}

func TestCalibrationHostDMA4K(t *testing.T) {
	// The fitted host-to-LANai profile must put the 4 KB transfer unit at
	// ~82 MB/s — the paper's user-to-user bandwidth limit (§5.2).
	prof := hw.Default().HostToLANai
	cost := prof.Cost(4096)
	mbps := 4096 / cost.Seconds() / 1e6
	if mbps < 80 || mbps > 84 {
		t.Errorf("4KB host DMA = %.1f MB/s, want ~82", mbps)
	}
}

func TestBusSerializesUsers(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, "pci")
	var done []sim.Time
	for i := 0; i < 3; i++ {
		e.Go("u", func(p *sim.Proc) {
			b.Use(p, 10*sim.Microsecond)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("user %d done at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestDMAEngineSerializesTransfers(t *testing.T) {
	e := sim.NewEngine()
	d := NewDMAEngine(e, "h2l", hw.DMAProfile{Setup: sim.Micros(1), Rate: 100e6}, nil)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		e.Go("t", func(p *sim.Proc) {
			d.Transfer(p, 1000) // 1us setup + 10us data
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != sim.Micros(11) || done[1] != sim.Micros(22) {
		t.Errorf("transfers done at %v, want [11us 22us]", done)
	}
	tr, by := d.Stats()
	if tr != 2 || by != 2000 {
		t.Errorf("Stats = %d,%d, want 2,2000", tr, by)
	}
}

func TestDMAEngineContendsForBus(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, "pci")
	d := NewDMAEngine(e, "h2l", hw.DMAProfile{Setup: 0, Rate: 100e6}, b)
	var dmaDone, pioDone sim.Time
	e.Go("pio", func(p *sim.Proc) {
		b.Use(p, 5*sim.Microsecond) // CPU holds the bus first
		pioDone = p.Now()
	})
	e.Go("dma", func(p *sim.Proc) {
		d.Transfer(p, 1000) // must wait for PIO: 5 + 10 = 15us
		dmaDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pioDone != 5*sim.Microsecond {
		t.Errorf("pio done at %v", pioDone)
	}
	if dmaDone != 15*sim.Microsecond {
		t.Errorf("dma done at %v, want 15us (queued behind PIO)", dmaDone)
	}
	if u := b.Utilization(); u < 0.99 {
		t.Errorf("bus utilization = %v, want ~1.0", u)
	}
}
