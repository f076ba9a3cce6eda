package fm

import (
	"bytes"
	"testing"

	"repro/internal/baselines/testbed"
	"repro/internal/hw"
	"repro/internal/sim"
)

func TestFMCreditFlowControl(t *testing.T) {
	eng := sim.NewEngine()
	r, err := testbed.New(eng, hw.Default())
	if err != nil {
		t.Fatal(err)
	}
	sys := New(eng, r)
	for _, ep := range sys.Eps {
		ep.window, ep.batch, ep.credits = 2, 1, 2
	}
	eng.Go("test", func(p *sim.Proc) {
		// A message needing more packets than the credit window must
		// stall at least once and still arrive intact.
		big := make([]byte, 24*PayloadBytes)
		for i := range big {
			big[i] = byte(i * 7)
		}
		eng.Go("sink", func(bp *sim.Proc) {
			got := sys.Eps[1].Extract(bp, 1)
			if !bytes.Equal(got[0], big) {
				t.Error("flow-controlled message corrupted")
			}
		})
		sys.Eps[0].Send(p, big)
		p.Sleep(sim.Millisecond)
		if sys.Eps[0].CreditStalls == 0 {
			t.Error("sender never stalled despite exceeding the credit window")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
