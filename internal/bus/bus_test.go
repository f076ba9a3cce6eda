package bus

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
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
	snap := e.MetricsSnapshot()
	tr, _ := snap.Counter("dma:h2l/transfers")
	by, _ := snap.Counter("dma:h2l/bytes")
	if tr != 2 || by != 2000 {
		t.Errorf("transfers, bytes = %d,%d, want 2,2000", tr, by)
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

// Start is TransferWith without the process: for a seeded interleaving of
// PCI reads and writes (so turnarounds happen) that contend with each
// other for the engine and with programmed I/O for the bus, any mix of the
// two forms completes every transfer at the same instant, charges the same
// turnarounds, and leaves the same counters, utilizations and trace — after
// the same number of events.
func TestDMAStartMatchesTransferWith(t *testing.T) {
	read := hw.DMAProfile{Setup: sim.Micros(1), Rate: 80e6}
	write := hw.DMAProfile{Setup: sim.Micros(1) / 2, Rate: 120e6}
	type xfer struct {
		arrive sim.Time
		n      int
		prof   hw.DMAProfile
		start  bool // continuation form
	}
	type outcome struct {
		Done        []sim.Time
		Transfers   int64
		Turnarounds int64
		Metrics     trace.Snapshot
		Trace       []trace.Event
		Dispatched  uint64
	}
	play := func(xs []xfer, withBus bool) outcome {
		e := sim.NewEngine()
		e.Trace().Enable(1 << 12)
		var b *Bus
		if withBus {
			b = New(e, "pci")
			e.Go("pio", func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					p.Sleep(sim.Micros(7))
					b.Use(p, sim.Micros(3))
				}
			})
		}
		d := NewDMAEngine(e, "lanai0:host", read, b)
		d.SetTurnaround(sim.Micros(2))
		o := outcome{Done: make([]sim.Time, len(xs))}
		for i, x := range xs {
			i, x := i, x
			if !x.start {
				e.Go("dma", func(p *sim.Proc) {
					p.Sleep(x.arrive)
					d.TransferWith(p, x.n, x.prof)
					o.Done[i] = p.Now()
				})
				continue
			}
			// What Go and Sleep post for the process, posted by hand.
			e.Post(0, func() {
				e.Post(x.arrive, func() {
					d.Start("dma", x.n, x.prof, func() { o.Done[i] = e.Now() })
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if d.Busy() || e.Trace().Dropped() != 0 {
			t.Fatalf("after the run: engine busy=%v, %d trace events dropped", d.Busy(), e.Trace().Dropped())
		}
		o.Metrics = e.MetricsSnapshot()
		o.Transfers, _ = o.Metrics.Counter("dma:lanai0:host/transfers")
		o.Turnarounds, _ = o.Metrics.Counter("dma:lanai0:host/turnarounds")
		o.Trace = e.Trace().Events()
		o.Dispatched = e.SchedStats().Dispatched
		return o
	}

	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 20; round++ {
		xs := make([]xfer, 24)
		for i := range xs {
			xs[i] = xfer{arrive: sim.Micros(float64(rng.Intn(12)) * 10), n: 1 + rng.Intn(4096), prof: read}
			if rng.Intn(3) == 0 {
				xs[i].prof = write
			}
		}
		for _, withBus := range []bool{true, false} {
			for i := range xs {
				xs[i].start = false
			}
			want := play(xs, withBus)
			if want.Transfers != int64(len(xs)) || want.Turnarounds == 0 {
				t.Fatalf("round %d: %d transfers, %v turnarounds: the schedule does not exercise both", round, want.Transfers, want.Turnarounds)
			}
			for _, mix := range []struct {
				name  string
				start func(i int) bool
			}{
				{"all Start", func(int) bool { return true }},
				{"alternating", func(i int) bool { return i%2 == 1 }},
				{"random", func(int) bool { return rng.Intn(2) == 0 }},
			} {
				for i := range xs {
					xs[i].start = mix.start(i)
				}
				if got := play(xs, withBus); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, bus=%v, %s: done %v, %d events, %v turnarounds;\n TransferWith alone: done %v, %d events, %v turnarounds (metrics equal %v, traces equal %v)",
						round, withBus, mix.name, got.Done, got.Dispatched, got.Turnarounds, want.Done, want.Dispatched, want.Turnarounds,
						reflect.DeepEqual(got.Metrics, want.Metrics), reflect.DeepEqual(got.Trace, want.Trace))
				}
			}
		}
	}
}

// A steady stream of Starts reuses its records: nothing is allocated per
// transfer once the first has finished.
func TestDMAStartDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	d := NewDMAEngine(e, "h2l", hw.DMAProfile{Setup: sim.Micros(1), Rate: 100e6}, New(e, "pci"))
	done := func() {}
	one := func() {
		d.Start("dma", 1000, d.Profile(), done)
		d.Start("dma", 1000, d.Profile(), done) // queues behind the first
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	one()
	if n := testing.AllocsPerRun(20, one); n != 0 {
		t.Errorf("%.0f allocations per pair of transfers, want 0", n)
	}
}
