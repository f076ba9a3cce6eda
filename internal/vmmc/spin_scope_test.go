package vmmc

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The memory-scoped spins (SpinByte, WaitSend) are re-evaluated only after
// the node's memory version moved. Some of their inputs are not stores
// into memory: a node crash or restart, a process kill, and a page being
// mapped. Each test below parks a spin, changes one of them with no memory
// write to follow, and requires the spin to notice on the very next 0.1 us
// sample — the tick it always noticed on. Without the corresponding
// version bump (Node.crash, Node.restart, KillProcess: Phys.Touch;
// mem.Physical.AllocFrame) the spin sleeps through the change: VerifySkips
// panics, and without it the run would end in a deadlock report.

// waitSendDisturbed parks a process in WaitSend behind a long send that
// takes hundreds of microseconds and runs disturb from an event 20.037 us
// into the spin. It returns the first sample tick after the disturbance,
// and when and how WaitSend came back.
func waitSendDisturbed(t *testing.T, disturb func(c *Cluster, send *Process)) (want, returned sim.Time, err error) {
	t.Helper()
	const size = 32 << 10
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, ierr := send.Import(p, 1, 1)
		if ierr != nil {
			t.Fatal(ierr)
		}
		src, _ := send.Malloc(size)
		seq, serr := send.SendMsg(p, src, dest, size, SendOptions{})
		if serr != nil {
			t.Fatal(serr)
		}
		start := p.Now()
		disturbed := start + sim.Micros(20) + 37 // off the spin grid
		want = nextSample(c, start, disturbed)
		c.Eng.At(disturbed, func() { disturb(c, send) })
		err = send.WaitSend(p, seq)
		returned = p.Now()
	})
	return want, returned, err
}

// nextSample is the first tick at or after t on the spin grid that starts
// one interval after start.
func nextSample(c *Cluster, start, t sim.Time) sim.Time {
	iv := c.Nodes[0].Prof.SpinCheckInterval
	return start + (t-start+iv-1)/iv*iv
}

func TestWaitSendNoticesNodeCrash(t *testing.T) {
	want, returned, err := waitSendDisturbed(t, func(c *Cluster, _ *Process) { c.CrashNode(0) })
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("WaitSend on a crashed node = %v, want ErrNodeDown", err)
	}
	if returned != want {
		t.Errorf("WaitSend returned at %v, want the first sample after the crash, %v", returned, want)
	}
}

func TestWaitSendNoticesKillProcess(t *testing.T) {
	want, returned, err := waitSendDisturbed(t, func(c *Cluster, send *Process) { c.Nodes[0].KillProcess(send.Pid) })
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("WaitSend of a killed process = %v, want ErrNodeDown", err)
	}
	if returned != want {
		t.Errorf("WaitSend returned at %v, want the first sample after the kill, %v", returned, want)
	}
}

// SpinByte on an address that is not mapped yet reads as "not there"; the
// page appearing is a change of the page table, not a store. Fresh memory
// is zero, so the awaited byte is there the moment the page is.
func TestSpinByteNoticesLateMapping(t *testing.T) {
	testCluster(t, 1, func(p *simProc, c *Cluster) {
		proc, _ := c.Nodes[0].NewProcess(p)
		last, _ := proc.Malloc(mem.PageSize)
		va := last + mem.PageSize // where the next Malloc will land
		if proc.AS.Mapped(va, 1) {
			t.Fatal("the page after the last allocation is already mapped")
		}
		start := p.Now()
		mapped := start + sim.Micros(3) + 41
		c.Eng.At(mapped, func() {
			if got, err := proc.Malloc(mem.PageSize); err != nil || got != va {
				t.Errorf("Malloc = %#x, %v, want %#x", got, err, va)
			}
		})
		proc.SpinByte(p, va, 0)
		if want := nextSample(c, start, mapped); p.Now() != want {
			t.Errorf("SpinByte returned at %v, want the first sample after the mapping at %v: %v", p.Now(), mapped, want)
		}
	})
}

// A restart flips Node.Crashed back: SpinOnMemory's contract lets a
// predicate read it.
func TestSpinOnMemoryNoticesRestart(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		proc, _ := c.Nodes[1].NewProcess(p)
		c.CrashNode(1)
		start := p.Now()
		restarted := start + sim.Micros(7) + 13
		c.Eng.At(restarted, func() {
			if err := c.RestartNode(1); err != nil {
				t.Error(err)
			}
		})
		proc.SpinOnMemory(p, 0, func() bool { return !c.Nodes[1].Crashed() })
		if want := nextSample(c, start, restarted); p.Now() != want {
			t.Errorf("spin returned at %v, want the first sample after the restart at %v: %v", p.Now(), restarted, want)
		}
	})
}

// The other side of the contract, at this layer: a SpinByte is not woken
// by traffic that leaves its node's memory alone. Two nodes ping-pong
// while a third spins on a byte nobody writes until the end; the bystander
// evaluates a handful of samples, not one per event of the exchange.
func TestSpinByteIgnoresOtherNodesTraffic(t *testing.T) {
	const rounds = 20
	testCluster(t, 3, func(p *simProc, c *Cluster) {
		a, _ := c.Nodes[0].NewProcess(p)
		b, _ := c.Nodes[1].NewProcess(p)
		idle, _ := c.Nodes[2].NewProcess(p)
		bufA, _ := a.Malloc(mem.PageSize)
		bufB, _ := b.Malloc(mem.PageSize)
		flag, _ := idle.Malloc(mem.PageSize)
		if err := a.Export(p, 1, bufA, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := b.Export(p, 2, bufB, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		toB, _, errB := a.Import(p, 1, 2)
		toA, _, errA := b.Import(p, 0, 1)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		srcA, _ := a.Malloc(mem.PageSize)
		srcB, _ := b.Malloc(mem.PageSize)

		released := sim.Time(0)
		c.Eng.Go("bystander", func(ip *simProc) {
			idle.SpinByte(ip, flag, 1)
			released = ip.Now()
		})
		c.Eng.Go("echo", func(bp *simProc) {
			for i := 1; i <= rounds; i++ {
				b.SpinByte(bp, bufB, byte(i))
				b.Write(srcB, []byte{byte(i)})
				if err := b.SendMsgSync(bp, srcB, toA, 1, SendOptions{}); err != nil {
					t.Error(err)
				}
			}
		})
		p.Sleep(sim.Microsecond) // let the bystander park first
		before := c.Eng.SchedStats()
		for i := 1; i <= rounds; i++ {
			a.Write(srcA, []byte{byte(i)})
			if err := a.SendMsgSync(p, srcA, toB, 1, SendOptions{}); err != nil {
				t.Fatal(err)
			}
			a.SpinByte(p, bufA, byte(i))
		}
		during := c.Eng.SchedStats()
		idle.Write(flag, []byte{1})
		p.Sleep(sim.Microsecond)
		if released == 0 {
			t.Fatal("the bystander never saw its flag")
		}
		// A round trip costs about four samples (79 for the 20 here): the
		// two that see a deposit, and a false re-check on each node after
		// a DMA that wrote something else. The bystander adds nothing —
		// under the engine-wide rule it re-checked after every one of the
		// exchange's ~760 events.
		sampled := during.Sampled - before.Sampled
		if sampled > 6*rounds {
			t.Errorf("%d samples evaluated over %d round trips (%d events dispatched): the bystander's spin is being woken by traffic that cannot reach it",
				sampled, rounds, during.Dispatched-before.Dispatched)
		}
	})
}
