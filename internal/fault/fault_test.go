package fault

import (
	"testing"

	"repro/internal/sim"
)

// The plan's whole value is determinism: the same seed must produce the
// same fault decisions, independent of Go version or map iteration, so
// that faulted runs reproduce byte for byte.

func drawSequence(seed uint64, n int) []bool {
	eng := sim.NewEngine()
	pl := NewPlan(eng, seed)
	pl.SetLinkBER(0, 1e-3)
	out := make([]bool, n)
	for i := range out {
		out[i] = pl.CorruptWire(0, 4096, true)
	}
	return out
}

func TestSameSeedSameDecisions(t *testing.T) {
	a := drawSequence(42, 500)
	b := drawSequence(42, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identically seeded plans", i)
		}
	}
	c := drawSequence(43, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical decision sequences")
	}
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	// p(corrupt a 4096-byte packet at ber 1e-3) ≈ 0.98; nearly all draws
	// should hit, and at least one must miss the burst-free path is live.
	if hits == 0 {
		t.Error("no corruption at ber 1e-3 over 500 packets")
	}
}

func TestBERBoundaries(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlan(eng, 1)
	pl.SetLinkBER(0, 0)
	pl.SetLinkBER(1, 1)
	for i := 0; i < 100; i++ {
		if pl.CorruptWire(0, 4096, true) {
			t.Fatal("ber 0 corrupted a packet")
		}
		if !pl.CorruptWire(1, 4096, true) {
			t.Fatal("ber 1 passed a packet clean")
		}
	}
	// Unconfigured links and nil plans never corrupt.
	if pl.CorruptWire(7, 4096, true) {
		t.Error("unconfigured link corrupted a packet")
	}
	var nilPlan *Plan
	if nilPlan.CorruptWire(0, 4096, true) || nilPlan.LinkDown(0) || nilPlan.DropMessage() {
		t.Error("nil plan injected a fault")
	}
}

func TestCorruptNextBurst(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlan(eng, 1)
	pl.CorruptNextOn(0, 3)
	for i := 0; i < 3; i++ {
		if !pl.CorruptWire(0, 64, true) {
			t.Fatalf("burst packet %d not corrupted", i)
		}
	}
	if pl.CorruptWire(0, 64, true) {
		t.Error("burst outlived its count")
	}
	// Bursts are a tx-end mechanism only.
	pl.CorruptNextOn(1, 1)
	if pl.CorruptWire(1, 64, false) {
		t.Error("rx consult consumed a tx burst")
	}
	if got, _ := eng.MetricsSnapshot().Counter("fault/corruptions"); got != 3 {
		t.Errorf("fault/corruptions = %d, want 3", got)
	}
}

func TestOutageWindows(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlan(eng, 1)
	pl.LinkOutage(0, 10*sim.Microsecond, 20*sim.Microsecond)
	pl.LinkOutage(1, 10*sim.Microsecond, 0) // until <= from: forever
	pl.SwitchOutage(0, 15*sim.Microsecond, 30*sim.Microsecond)

	type sample struct {
		at                    sim.Time
		link0, link1, switch0 bool
	}
	want := []sample{
		{5 * sim.Microsecond, false, false, false},
		{15 * sim.Microsecond, true, true, true},
		{25 * sim.Microsecond, false, true, true},
		{35 * sim.Microsecond, false, true, false},
	}
	eng.Go("probe", func(p *sim.Proc) {
		for _, s := range want {
			p.Sleep(s.at - p.Now())
			if got := pl.LinkDown(0); got != s.link0 {
				t.Errorf("t=%v: LinkDown(0) = %v, want %v", s.at, got, s.link0)
			}
			if got := pl.LinkDown(1); got != s.link1 {
				t.Errorf("t=%v: LinkDown(1) = %v, want %v", s.at, got, s.link1)
			}
			if got := pl.SwitchDown(0); got != s.switch0 {
				t.Errorf("t=%v: SwitchDown(0) = %v, want %v", s.at, got, s.switch0)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduledCrashRestartCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlan(eng, 1)
	var events []string
	pl.OnNodeCrash(func(node int) { events = append(events, "crash") })
	pl.OnNodeRestart(func(node int) { events = append(events, "restart") })
	pl.ScheduleCrash(2, 10*sim.Microsecond)
	pl.ScheduleRestart(2, 30*sim.Microsecond)
	eng.Go("idle", func(p *sim.Proc) { p.Sleep(50 * sim.Microsecond) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "crash" || events[1] != "restart" {
		t.Errorf("events = %v, want [crash restart]", events)
	}
	snap := eng.MetricsSnapshot()
	crashes, _ := snap.Counter("fault/node_crashes")
	restarts, _ := snap.Counter("fault/node_restarts")
	if crashes != 1 || restarts != 1 {
		t.Errorf("fault/node_crashes, fault/node_restarts = %d, %d, want 1, 1", crashes, restarts)
	}
}
