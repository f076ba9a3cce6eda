package bench

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

func TestRunPairSetsUpBothDirections(t *testing.T) {
	err := new(Run).RunPair(vmmc.Options{}, 8192, func(p *sim.Proc, pr *Pair) error {
		// A->B and B->A both work after setup.
		if err := pr.A.Write(pr.SrcA, []byte{0x11}); err != nil {
			return err
		}
		if err := pr.A.SendMsgSync(p, pr.SrcA, pr.ToB, 1, vmmc.SendOptions{}); err != nil {
			return err
		}
		pr.B.SpinByte(p, pr.BufB, 0x11)
		if err := pr.B.Write(pr.SrcB, []byte{0x22}); err != nil {
			return err
		}
		if err := pr.B.SendMsgSync(p, pr.SrcB, pr.ToA, 1, vmmc.SendOptions{}); err != nil {
			return err
		}
		pr.A.SpinByte(p, pr.BufA, 0x22)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPairWarmTLB(t *testing.T) {
	// After setup the TLBs are warm: a full-window send takes no refills.
	err := new(Run).RunPair(vmmc.Options{}, 64*4096, func(p *sim.Proc, pr *Pair) error {
		before := counterNow(pr.Eng, "node0/tlb_refills")
		if err := pr.A.SendMsgSync(p, pr.SrcA, pr.ToB, pr.Window, vmmc.SendOptions{}); err != nil {
			return err
		}
		after := counterNow(pr.Eng, "node0/tlb_refills")
		if after != before {
			t.Errorf("warm pair took %d refills", after-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFenceOrdering(t *testing.T) {
	// Fence returns only after all previously posted traffic delivered.
	err := new(Run).RunPair(vmmc.Options{}, 64*4096, func(p *sim.Proc, pr *Pair) error {
		const n = 32 * 4096
		if err := pr.A.Write(pr.SrcA+mem.VirtAddr(n)-1, []byte{0x5E}); err != nil {
			return err
		}
		if _, err := pr.A.SendMsg(p, pr.SrcA, pr.ToB, n, vmmc.SendOptions{}); err != nil {
			return err
		}
		if err := pr.Fence(p); err != nil {
			return err
		}
		// No spin needed: the fence guarantees delivery.
		got, err := pr.B.Read(pr.BufB+mem.VirtAddr(n)-1, 1)
		if err != nil {
			return err
		}
		if got[0] != 0x5E {
			t.Error("fence returned before prior traffic was delivered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendOverheadRejectsBadSizes(t *testing.T) {
	err := new(Run).RunPair(vmmc.Options{}, 4096, func(p *sim.Proc, pr *Pair) error {
		if _, err := pr.SendOverhead(p, 0, 1, true); err == nil {
			t.Error("zero-size overhead accepted")
		}
		if _, err := pr.PingPongLatency(p, 8192, 1); err == nil {
			t.Error("oversized ping-pong accepted")
		}
		if _, err := pr.OneWayBandwidth(p, 8192, 1); err == nil {
			t.Error("oversized stream accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPairProfileOverride(t *testing.T) {
	prof := hw.Default()
	prof.LCPDispatch *= 8
	var slow, fast float64
	if err := new(Run).RunPair(vmmc.Options{Prof: &prof}, 4096, func(p *sim.Proc, pr *Pair) error {
		v, err := pr.PingPongLatency(p, 4, 20)
		if err != nil {
			return err
		}
		slow = v
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := new(Run).RunPair(vmmc.Options{}, 4096, func(p *sim.Proc, pr *Pair) error {
		v, err := pr.PingPongLatency(p, 4, 20)
		if err != nil {
			return err
		}
		fast = v
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if slow <= fast {
		t.Errorf("slowed profile latency %.2f <= default %.2f", slow, fast)
	}
}

func TestSeriesAndTableFormat(t *testing.T) {
	s := Series{Name: "demo", Unit: "MB/s", Points: []Point{{X: 1024, Y: 33.3}, {X: 4096, Y: 81.9}}}
	out := s.Format()
	for _, want := range []string{"demo", "MB/s", "1024", "81.90"} {
		if !strings.Contains(out, want) {
			t.Errorf("series format missing %q:\n%s", want, out)
		}
	}
	tb := Table{
		Title:   "demo table",
		Columns: []string{"a", "long column"},
		Rows:    [][]string{{"x", "y"}, {"wider cell", "z"}},
	}
	got := tb.Format()
	for _, want := range []string{"demo table", "long column", "wider cell"} {
		if !strings.Contains(got, want) {
			t.Errorf("table format missing %q:\n%s", want, got)
		}
	}
}
