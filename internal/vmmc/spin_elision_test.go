package vmmc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// spinPingPong runs a two-node ping-pong — short echoes, then one long
// SendMsgSync each way so WaitSend spins too — and returns every virtual
// timestamp either side observed plus the scheduler's counts over the
// exchange. spin is how a side waits for its flag byte; with beat set, an
// event fires every half spin interval and stores a scratch byte into each
// node's memory — an event alone disturbs only the spins that watch the
// engine's counter — so no sample of any spin in the stack (the library's
// internal ones included) can be elided.
func spinPingPong(t *testing.T, beat bool, spin func(proc *Process, p *simProc, va mem.VirtAddr, want byte)) (stamps []sim.Time, dispatched, elided, beats uint64) {
	t.Helper()
	const rounds = 12
	const long = 4096
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := NewCluster(eng, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Go("workload", func(p *simProc) {
		a, _ := c.Nodes[0].NewProcess(p)
		b, _ := c.Nodes[1].NewProcess(p)
		bufA, _ := a.Malloc(2 * mem.PageSize)
		bufB, _ := b.Malloc(2 * mem.PageSize)
		if err := a.Export(p, 1, bufA, 2*mem.PageSize, nil, false); err != nil {
			t.Error(err)
			return
		}
		if err := b.Export(p, 2, bufB, 2*mem.PageSize, nil, false); err != nil {
			t.Error(err)
			return
		}
		toB, _, errB := a.Import(p, 1, 2)
		toA, _, errA := b.Import(p, 0, 1)
		if errA != nil || errB != nil {
			t.Error(errA, errB)
			return
		}
		srcA, _ := a.Malloc(2 * mem.PageSize)
		srcB, _ := b.Malloc(2 * mem.PageSize)
		scratchA, _ := a.Malloc(mem.PageSize)
		scratchB, _ := b.Malloc(mem.PageSize)

		done := false
		if beat {
			var tick func()
			tick = func() {
				if !done {
					beats++
					a.Write(scratchA, []byte{byte(beats)})
					b.Write(scratchB, []byte{byte(beats)})
					eng.After(c.Nodes[0].Prof.SpinCheckInterval/2, tick)
				}
			}
			eng.After(0, tick)
		}
		before := eng.SchedStats()

		echoed := false
		eng.Go("echo", func(bp *simProc) {
			defer func() { echoed = true }()
			for i := 1; i <= rounds+1; i++ {
				n := 4
				if i > rounds {
					n = long
				}
				spin(b, bp, bufB+mem.VirtAddr(n-1), byte(i))
				stamps = append(stamps, bp.Now())
				fill := make([]byte, n)
				fill[n-1] = byte(i)
				b.Write(srcB, fill)
				if err := b.SendMsgSync(bp, srcB, toA, n, SendOptions{}); err != nil {
					t.Error(err)
					return
				}
				stamps = append(stamps, bp.Now())
			}
		})
		for i := 1; i <= rounds+1; i++ {
			n := 4
			if i > rounds {
				n = long
			}
			fill := make([]byte, n)
			fill[n-1] = byte(i)
			a.Write(srcA, fill)
			if err := a.SendMsgSync(p, srcA, toB, n, SendOptions{}); err != nil {
				t.Error(err)
				return
			}
			stamps = append(stamps, p.Now())
			spin(a, p, bufA+mem.VirtAddr(n-1), byte(i))
			stamps = append(stamps, p.Now())
		}
		a.SpinUntil(p, func() bool { return echoed })
		done = true
		after := eng.SchedStats()
		dispatched = after.Dispatched - before.Dispatched
		elided = after.Elided - before.Elided
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return stamps, dispatched, elided, beats
}

// The stack-level half of the elision oracle (internal/sim has the random
// one): the production spins — SpinByte, WaitSend's completion-word spin —
// must land on the same virtual timestamps whether their samples are
// elided, evaluated one heap event each by the legacy primitive, or all
// forced real by a heartbeat; and every sample not dispatched must show up
// in SchedStats.Elided, no more and no fewer.
func TestSpinElisionPingPongExact(t *testing.T) {
	elidedSpin := func(proc *Process, p *simProc, va mem.VirtAddr, want byte) {
		proc.SpinByte(p, va, want)
	}
	legacySpin := func(proc *Process, p *simProc, va mem.VirtAddr, want byte) {
		proc.Node.CPU.SpinWait(p, func() bool {
			b, err := proc.AS.ReadBytes(va, 1)
			return err == nil && b[0] == want
		})
	}
	stamps, disp, elided, _ := spinPingPong(t, false, elidedSpin)
	if elided == 0 || disp == 0 {
		t.Fatalf("nothing elided (dispatched %d, elided %d): the test exercises nothing", disp, elided)
	}

	legacyStamps, legacyDisp, legacyElided, _ := spinPingPong(t, false, legacySpin)
	if !reflect.DeepEqual(stamps, legacyStamps) {
		t.Errorf("virtual timestamps differ between SpinByte and the legacy SpinWait:\n elided %v\n legacy %v", stamps, legacyStamps)
	}
	// The library's own spins stay on the eliding primitive in this run,
	// so the invariant is on the sum.
	if legacyDisp+legacyElided != disp+elided {
		t.Errorf("legacy run: %d dispatched + %d elided != %d dispatched + %d elided",
			legacyDisp, legacyElided, disp, elided)
	}
	if legacyDisp <= disp {
		t.Errorf("dispatched did not fall: legacy %d, elided %d", legacyDisp, disp)
	}

	beatStamps, beatDisp, beatElided, beats := spinPingPong(t, true, elidedSpin)
	if !reflect.DeepEqual(stamps, beatStamps) {
		t.Errorf("virtual timestamps differ when every sample is forced real:\n elided %v\n forced %v", stamps, beatStamps)
	}
	if beatElided != 0 {
		t.Errorf("%d samples elided under the heartbeat", beatElided)
	}
	if beatDisp-beats != disp+elided {
		t.Errorf("every-sample run dispatched %d (less %d beats) != %d dispatched + %d elided",
			beatDisp, beats, disp, elided)
	}
}

// A receiver spinning on a flag nobody will ever write used to keep the
// engine sampling forever; it is now reported like any other deadlock.
func TestWedgedSpinByteIsDeadlock(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := NewCluster(eng, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Go("receiver", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		recv.SpinByte(p, buf, 0x5A)
		t.Error("SpinByte returned")
	})
	err = c.Start()
	if err == nil || !strings.Contains(err.Error(), "receiver (poll)") {
		t.Fatalf("Start() = %v, want a deadlock naming the spinning receiver", err)
	}
}
