// Package baselines_test calibrates the three related-work protocol models
// against the numbers Section 7 reports on the same hardware platform:
//
//	Myrinet API: 63 us latency (4 B), ~30 MB/s peak ping-pong (8 KB)
//	FM 2.0:      10.7 us latency (8 B), PIO-limited peak bandwidth
//	PM:          7.2 us latency (8 B), peak pipelined bandwidth with
//	             8 KB transfer units (on our calibrated PCI-read curve
//	             this saturates at ~83 MB/s; see EXPERIMENTS.md)
//
// Active Messages, the fourth system §7 names, "does not yet run on our
// hardware" and is not modeled.
package baselines_test

import (
	"bytes"
	"testing"

	"repro/internal/baselines/fm"
	"repro/internal/baselines/gmapi"
	"repro/internal/baselines/pm"
	"repro/internal/baselines/testbed"
	"repro/internal/hw"
	"repro/internal/sim"
)

func rig(t *testing.T) (*sim.Engine, *testbed.Rig) {
	t.Helper()
	eng := sim.NewEngine()
	r, err := testbed.New(eng, hw.Default())
	if err != nil {
		t.Fatal(err)
	}
	return eng, r
}

func run(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// --- FM ---

func TestFMDelivery(t *testing.T) {
	eng, r := rig(t)
	sys := fm.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		msg := make([]byte, 1000)
		for i := range msg {
			msg[i] = byte(i)
		}
		sys.Eps[0].Send(p, msg)
		got := sys.Eps[1].Extract(p, 1)
		if len(got) != 1 || !bytes.Equal(got[0], msg) {
			t.Error("FM message corrupted or missing")
		}
	})
	run(t, eng)
}

func TestFMLatency(t *testing.T) {
	eng, r := rig(t)
	sys := fm.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		// Warm one round, then measure ping-pong.
		sys.Eps[0].Send(p, make([]byte, 8))
		sys.Eps[1].Extract(p, 1)

		const iters = 50
		done := false
		eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < iters; i++ {
				m := sys.Eps[1].Extract(bp, 1)
				sys.Eps[1].Send(bp, m[0])
			}
			done = true
		})
		start := p.Now()
		for i := 0; i < iters; i++ {
			sys.Eps[0].Send(p, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			sys.Eps[0].Extract(p, 1)
		}
		lat := (p.Now() - start).Micros() / float64(2*iters)
		t.Logf("FM 8-byte one-way latency = %.2f us (paper: 10.7)", lat)
		if lat < 9.7 || lat > 11.7 {
			t.Errorf("FM latency = %.2f us, want 10.7 +/- 1", lat)
		}
		for !done {
			p.Sleep(sim.Microsecond)
		}
	})
	run(t, eng)
}

func TestFMBandwidthPIOLimited(t *testing.T) {
	eng, r := rig(t)
	sys := fm.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		const msg = 8 << 10
		const count = 50
		got := 0
		doneAt := sim.Time(0)
		eng.Go("sink", func(bp *sim.Proc) {
			for got < count {
				got += len(sys.Eps[1].Extract(bp, 8))
			}
			doneAt = bp.Now()
		})
		start := p.Now()
		for i := 0; i < count; i++ {
			sys.Eps[0].Send(p, make([]byte, msg))
		}
		for doneAt == 0 {
			p.Sleep(10 * sim.Microsecond)
		}
		mbps := float64(msg*count) / (doneAt - start).Seconds() / 1e6
		t.Logf("FM streaming bandwidth (8KB msgs) = %.1f MB/s (PIO-limited, ~30)", mbps)
		if mbps < 25 || mbps > 34 {
			t.Errorf("FM bandwidth = %.1f MB/s, want 25-34 (PIO write limit)", mbps)
		}
	})
	run(t, eng)
}

// --- PM ---

func TestPMDelivery(t *testing.T) {
	eng, r := rig(t)
	sys := pm.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		ch, err := sys.OpenChannel(1)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 20000)
		for i := range msg {
			msg[i] = byte(i ^ 0x3C)
		}
		if err := ch.Send(p, 0, msg, true); err != nil {
			t.Fatal(err)
		}
		got := ch.Recv(p, 1)
		if !bytes.Equal(got, msg) {
			t.Error("PM message corrupted")
		}
	})
	run(t, eng)
}

func TestPMLatency(t *testing.T) {
	eng, r := rig(t)
	sys := pm.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		ch, err := sys.OpenChannel(1)
		if err != nil {
			t.Fatal(err)
		}
		ch.Send(p, 0, make([]byte, 8), false)
		ch.Recv(p, 1) // warm
		const iters = 50
		eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < iters; i++ {
				m := ch.Recv(bp, 1)
				ch.Send(bp, 1, m, false)
			}
		})
		start := p.Now()
		for i := 0; i < iters; i++ {
			ch.Send(p, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false)
			ch.Recv(p, 0)
		}
		lat := (p.Now() - start).Micros() / float64(2*iters)
		t.Logf("PM 8-byte one-way latency = %.2f us (paper: 7.2)", lat)
		if lat < 6.4 || lat > 8.0 {
			t.Errorf("PM latency = %.2f us, want 7.2 +/- 0.8", lat)
		}
	})
	run(t, eng)
}

func TestPMPipelinedBandwidth(t *testing.T) {
	eng, r := rig(t)
	sys := pm.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		ch, err := sys.OpenChannel(1)
		if err != nil {
			t.Fatal(err)
		}
		const msg = 256 << 10
		const count = 20
		recvd := 0
		doneAt := sim.Time(0)
		eng.Go("sink", func(bp *sim.Proc) {
			for recvd < count {
				ch.Recv(bp, 1)
				recvd++
			}
			doneAt = bp.Now()
		})
		start := p.Now()
		for i := 0; i < count; i++ {
			// Peak quote excludes the user copy (§7).
			if err := ch.Send(p, 0, make([]byte, msg), false); err != nil {
				t.Fatal(err)
			}
		}
		for doneAt == 0 {
			p.Sleep(10 * sim.Microsecond)
		}
		mbps := float64(msg*count) / (doneAt - start).Seconds() / 1e6
		t.Logf("PM pipelined bandwidth (8KB units) = %.1f MB/s (saturates our PCI-read curve ~83)", mbps)
		if mbps < 80 || mbps > 86 {
			t.Errorf("PM bandwidth = %.1f MB/s, want ~83 (8KB-unit DMA limit)", mbps)
		}
		// On the paper's testbed PM's larger transfer units put it well
		// above VMMC (118 vs 80.4); on our calibrated PCI-read curve the
		// 8 KB unit only edges out the page-sized one (see EXPERIMENTS.md).
	})
	run(t, eng)
}

func TestPMCopyCostReducesUserBandwidth(t *testing.T) {
	eng, r := rig(t)
	sys := pm.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		ch, err := sys.OpenChannel(1)
		if err != nil {
			t.Fatal(err)
		}
		const msg = 64 << 10
		start := p.Now()
		ch.Send(p, 0, make([]byte, msg), false)
		noCopy := p.Now() - start
		start = p.Now()
		ch.Send(p, 0, make([]byte, msg), true)
		withCopy := p.Now() - start
		if withCopy <= noCopy {
			t.Errorf("copy-included send (%v) not slower than peak-mode send (%v)", withCopy, noCopy)
		}
	})
	run(t, eng)
}

// --- Myrinet API ---

func TestGMAPIDelivery(t *testing.T) {
	eng, r := rig(t)
	sys := gmapi.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		msg := make([]byte, 10000)
		for i := range msg {
			msg[i] = byte(i * 3)
		}
		sys.Eps[0].Send(p, msg)
		got := sys.Eps[1].Recv(p)
		if !bytes.Equal(got, msg) {
			t.Error("API message corrupted")
		}
	})
	run(t, eng)
}

func TestGMAPILatency(t *testing.T) {
	eng, r := rig(t)
	sys := gmapi.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		sys.Eps[0].Send(p, make([]byte, 4))
		sys.Eps[1].Recv(p) // warm
		const iters = 20
		eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < iters; i++ {
				m := sys.Eps[1].Recv(bp)
				sys.Eps[1].Send(bp, m)
			}
		})
		start := p.Now()
		for i := 0; i < iters; i++ {
			sys.Eps[0].Send(p, []byte{1, 2, 3, 4})
			sys.Eps[0].Recv(p)
		}
		lat := (p.Now() - start).Micros() / float64(2*iters)
		t.Logf("Myrinet API 4-byte one-way latency = %.2f us (paper: 63)", lat)
		if lat < 58 || lat > 68 {
			t.Errorf("API latency = %.2f us, want 63 +/- 5", lat)
		}
	})
	run(t, eng)
}

func TestGMAPIPingPongBandwidth(t *testing.T) {
	eng, r := rig(t)
	sys := gmapi.New(eng, r)
	eng.Go("test", func(p *sim.Proc) {
		const msg = 8 << 10
		sys.Eps[0].Send(p, make([]byte, msg))
		sys.Eps[1].Recv(p) // warm
		const iters = 10
		eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < iters; i++ {
				m := sys.Eps[1].Recv(bp)
				sys.Eps[1].Send(bp, m)
			}
		})
		start := p.Now()
		for i := 0; i < iters; i++ {
			sys.Eps[0].Send(p, make([]byte, msg))
			sys.Eps[0].Recv(p)
		}
		oneWay := (p.Now() - start).Seconds() / float64(2*iters)
		mbps := msg / oneWay / 1e6
		t.Logf("Myrinet API ping-pong bandwidth (8KB) = %.1f MB/s (paper: ~30)", mbps)
		if mbps < 26 || mbps > 35 {
			t.Errorf("API bandwidth = %.1f MB/s, want ~30", mbps)
		}
	})
	run(t, eng)
}
