package ether

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func TestSendDeliversAfterLatency(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, sim.Millisecond)
	box := b.Register(1)
	var at sim.Time
	var got Message
	e.Go("recv", func(p *sim.Proc) {
		got = box.Get(p)
		at = p.Now()
	})
	e.Go("send", func(p *sim.Proc) {
		b.Send(p, 0, 1, "hello", 42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Kind != "hello" || got.Body != 42 || got.From != 0 {
		t.Errorf("got %+v", got)
	}
	if at < sim.Millisecond {
		t.Errorf("delivered at %v, want >= 1ms", at)
	}
}

func TestSendToUnregisteredPanics(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, sim.Millisecond)
	e.Go("send", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send to unregistered node did not panic")
			}
		}()
		b.Send(p, 0, 9, "x", nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedDeliveryPerSender(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, sim.Millisecond)
	box := b.Register(1)
	b.Register(0)
	var got []int
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			m := box.Get(p)
			got = append(got, m.Body.(int))
		}
	})
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			b.Send(p, 0, 1, "seq", i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if sent, _ := e.MetricsSnapshot().Counter("ether/messages_sent"); sent != 5 {
		t.Errorf("ether/messages_sent = %d, want 5", sent)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, sim.Millisecond)
	if b.Register(3) != b.Register(3) {
		t.Error("Register returned different mailboxes for same node")
	}
}

// jitterDelays sends n well-spaced datagrams over a bus whose fault plan
// (seeded with seed) has the given Ethernet jitter, and returns each
// datagram's delivery delay beyond the bus latency, in send order.
func jitterDelays(t *testing.T, seed uint64, jitter sim.Time, n int) []sim.Time {
	t.Helper()
	e := sim.NewEngine()
	b := New(e, sim.Millisecond)
	pl := fault.NewPlan(e, seed)
	if jitter > 0 {
		pl.SetEtherJitter(jitter)
	}
	b.SetFaults(pl)
	box := b.Register(1)
	sent := make([]sim.Time, n)
	extra := make([]sim.Time, n)
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m := box.Get(p)
			extra[m.Body.(int)] = p.Now() - sim.Millisecond
		}
	})
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			b.Send(p, 0, 1, "d", i)
			sent[i] = p.Now() // Send returns at the instant it schedules the delivery
			p.Sleep(10 * sim.Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range extra {
		extra[i] -= sent[i]
	}
	return extra
}

// TestEtherJitter pins fault.Plan.SetEtherJitter at the layer that
// consumes it: each daemon datagram is delayed by a seed-determined
// extra amount in [0, max), and a plan with no jitter set adds none.
func TestEtherJitter(t *testing.T) {
	const (
		n   = 32
		max = 4 * sim.Millisecond
	)
	delays := jitterDelays(t, 0xE7E2, max, n)
	for i, d := range delays {
		if d < 0 || d >= max {
			t.Errorf("datagram %d: extra delay %v outside [0, %v)", i, d, max)
		}
	}
	if slices.Max(delays) == slices.Min(delays) {
		t.Errorf("all %d datagrams were delayed by %v: jitter drew no randomness", n, delays[0])
	}
	if again := jitterDelays(t, 0xE7E2, max, n); !slices.Equal(delays, again) {
		t.Errorf("same seed, different delays:\n%v\n%v", delays, again)
	}
	if other := jitterDelays(t, 0xE7E3, max, n); slices.Equal(delays, other) {
		t.Error("a different seed drew the same delays")
	}
	for i, d := range jitterDelays(t, 0xE7E2, 0, n) {
		if d != 0 {
			t.Errorf("no jitter set: datagram %d delayed by an extra %v", i, d)
		}
	}
}
