package shrimp

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

func pairSetup(t *testing.T) (*sim.Engine, *System, func(p *sim.Proc) (*Process, *Process, ProxyAddr)) {
	t.Helper()
	eng := sim.NewEngine()
	sys := New(eng, hw.DefaultSHRIMP(), 2, 16<<20)
	setup := func(p *sim.Proc) (*Process, *Process, ProxyAddr) {
		recv := sys.Nodes[1].NewProcess()
		send := sys.Nodes[0].NewProcess()
		buf, err := recv.Malloc(64 * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Export(p, 1, buf, 64*mem.PageSize, nil); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return send, recv, dest
	}
	return eng, sys, setup
}

func TestDeliberateUpdateDelivers(t *testing.T) {
	eng, sys, setup := pairSetup(t)
	eng.Go("test", func(p *sim.Proc) {
		send, recv, dest := setup(p)
		src, _ := send.Malloc(mem.PageSize)
		msg := []byte("shrimp deliberate update")
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendDeliberate(p, src, dest+ProxyAddr(77), len(msg)); err != nil {
			t.Fatal(err)
		}
		// Find the receive buffer: the only export on node 1.
		exp := sys.Nodes[1].exports[1]
		got, _ := recv.Read(exp.va+77, len(msg))
		if !bytes.Equal(got, msg) {
			t.Errorf("receiver memory = %q", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPageTransferIntegrity(t *testing.T) {
	eng, sys, setup := pairSetup(t)
	eng.Go("test", func(p *sim.Proc) {
		send, recv, dest := setup(p)
		const size = 5*mem.PageSize + 123
		src, _ := send.Malloc(6 * mem.PageSize)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(3 * i)
		}
		if err := send.Write(src+9, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendDeliberate(p, src+9, dest+ProxyAddr(2000), size); err != nil {
			t.Fatal(err)
		}
		exp := sys.Nodes[1].exports[1]
		got, _ := recv.Read(exp.va+2000, size)
		if !bytes.Equal(got, msg) {
			t.Error("multi-page transfer corrupted")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShrimpProtection(t *testing.T) {
	eng, _, setup := pairSetup(t)
	eng.Go("test", func(p *sim.Proc) {
		send, _, dest := setup(p)
		src, _ := send.Malloc(65 * mem.PageSize)
		if err := send.SendDeliberate(p, src, dest, 64*mem.PageSize+1); err != ErrOutOfRange {
			t.Errorf("overrun got %v, want ErrOutOfRange", err)
		}
		if err := send.SendDeliberate(p, src, ProxyAddr(1<<30), 8); err != ErrNotImported {
			t.Errorf("bad proxy got %v, want ErrNotImported", err)
		}
		if err := send.SendDeliberate(p, src+100*mem.PageSize, dest, 8); err != ErrBadBuffer {
			t.Errorf("unmapped src got %v, want ErrBadBuffer", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShrimpImportRestrictions(t *testing.T) {
	eng := sim.NewEngine()
	sys := New(eng, hw.DefaultSHRIMP(), 3, 16<<20)
	eng.Go("test", func(p *sim.Proc) {
		exp := sys.Nodes[0].NewProcess()
		buf, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 5, buf, mem.PageSize, []int{1}); err != nil {
			t.Fatal(err)
		}
		ok := sys.Nodes[1].NewProcess()
		if _, _, err := ok.Import(p, 0, 5); err != nil {
			t.Errorf("allowed import failed: %v", err)
		}
		bad := sys.Nodes[2].NewProcess()
		if _, _, err := bad.Import(p, 0, 5); err != ErrDenied {
			t.Errorf("denied import got %v", err)
		}
		if _, _, err := ok.Import(p, 0, 99); err != ErrNoSuchExport {
			t.Errorf("missing export got %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// Section 6 calibration: SHRIMP's comparison numbers.

func TestShrimpOneWordLatency(t *testing.T) {
	eng, sys, setup := pairSetup(t)
	eng.Go("test", func(p *sim.Proc) {
		send, _, dest := setup(p)
		lat, err := sys.OneWordLatency(p, send, dest)
		if err != nil {
			t.Fatal(err)
		}
		us := lat.Micros()
		t.Logf("SHRIMP one-word latency = %.2f us (paper: ~7)", us)
		if us < 6.5 || us > 7.6 {
			t.Errorf("latency = %.2f us, want ~7", us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShrimpInitiationOverhead(t *testing.T) {
	sys := New(sim.NewEngine(), hw.DefaultSHRIMP(), 2, 16<<20)
	us := sys.InitiationOverhead().Micros()
	t.Logf("SHRIMP send initiation = %.2f us (paper: 2-3)", us)
	if us < 2.0 || us > 3.0 {
		t.Errorf("initiation = %.2f us, want 2-3", us)
	}
}

func TestShrimpBandwidth(t *testing.T) {
	eng, _, setup := pairSetup(t)
	eng.Go("test", func(p *sim.Proc) {
		send, _, dest := setup(p)
		src, _ := send.Malloc(64 * mem.PageSize)
		const total = 64 * mem.PageSize
		start := p.Now()
		if err := send.SendDeliberate(p, src, dest, total); err != nil {
			t.Fatal(err)
		}
		elapsed := p.Now() - start
		mbps := total / elapsed.Seconds() / 1e6
		t.Logf("SHRIMP user-to-user bandwidth = %.1f MB/s (paper: 23, the EISA hardware limit)", mbps)
		if mbps < 22 || mbps > 24 {
			t.Errorf("bandwidth = %.1f MB/s, want ~23", mbps)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
