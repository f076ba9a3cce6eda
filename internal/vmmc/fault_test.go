package vmmc

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Recovery hardening: node crashes mid-traffic surface typed errors
// within the retransmit budget, leave no dangling page pins, and never
// take the rest of the cluster down; restarts rejoin cleanly; daemon
// handshakes survive Ethernet loss and give up on dead exporters.

// TestCrashMidTrafficSurfacesUnreachable kills a receiver while a
// reliable sender streams at it. The sender must observe
// ErrNodeUnreachable once the retransmit budget runs out — bounded sim
// time, no wedge — the crashed node must hold no pinned frames, and a
// healthy pair on the same fabric must keep passing byte-exact traffic.
func TestCrashMidTrafficSurfacesUnreachable(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 0xDEAD)
	c, err := NewCluster(eng, Options{Nodes: 3, Reliable: true, Faults: pl})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.VerifyIntact()
	c.Go("crash", func(p *simProc) {
		recv1, _ := c.Nodes[1].NewProcess(p)
		recv2, _ := c.Nodes[2].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 4 * mem.PageSize
		buf1, _ := recv1.Malloc(size)
		if err := recv1.Export(p, 1, buf1, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		buf2, _ := recv2.Malloc(size)
		if err := recv2.Export(p, 2, buf2, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		dest1, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		dest2, _, err := send.Import(p, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(size)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*11 + 5)
		}
		if err := send.Write(src, msg); err != nil {
			t.Error(err)
			return
		}

		// The receiver dies shortly into the stream.
		pl.ScheduleCrash(1, p.Now()+300*sim.Microsecond)

		var sendErr error
		start := p.Now()
		for i := 0; i < 200 && sendErr == nil; i++ {
			sendErr = send.SendMsgChecked(p, src, dest1, size, SendOptions{})
		}
		if sendErr == nil {
			t.Error("no send error after 200 sends at a crashed node")
			return
		}
		if !errors.Is(sendErr, ErrNodeUnreachable) {
			t.Errorf("send error = %v, want ErrNodeUnreachable", sendErr)
		}
		// The budget bounds detection: 8 rounds of at most 2 ms each,
		// plus slack for the in-flight window.
		if took := p.Now() - start; took > 100*sim.Millisecond {
			t.Errorf("unreachable detection took %v", took)
		}
		if send.Errors().SendFailures == 0 {
			t.Error("send failure not counted in process error stats")
		}

		// Crash semantics: the dead node's OS holds no locked pages.
		phys := c.Nodes[1].Phys
		for f := 0; f < phys.NumFrames(); f++ {
			if phys.Pinned(f) {
				t.Errorf("frame %d still pinned on crashed node", f)
				break
			}
		}
		if !c.Nodes[1].Crashed() {
			t.Error("node 1 not marked crashed")
		}

		// The healthy pair is unaffected.
		if err := send.SendMsgChecked(p, src, dest2, size, SendOptions{}); err != nil {
			t.Errorf("healthy-pair send failed after crash: %v", err)
			return
		}
		recv2.SpinByte(p, buf2+mem.VirtAddr(size-1), msg[size-1])
		got, _ := recv2.Read(buf2, size)
		if !bytes.Equal(got, msg) {
			t.Error("healthy-pair transfer corrupted")
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if n := counter(t, c.Eng, "fault/node_crashes"); n != 1 {
		t.Errorf("plan crashes = %d, want 1", n)
	}
}

// TestRestartRejoinsCluster crashes a node, restarts it, and checks that
// a fresh export/import/send cycle toward it works: the restart resets
// peers' reliable-link state so fresh sequence numbers are accepted, and
// the rebooted daemon serves imports again.
func TestRestartRejoinsCluster(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 0xCAFE)
	c, err := NewCluster(eng, Options{Nodes: 2, Reliable: true, Faults: pl})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.VerifyIntact()
	c.Go("restart", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 2 * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Error(err)
			return
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(size)
		msg := bytes.Repeat([]byte{0x5A}, size)
		if err := send.Write(src, msg); err != nil {
			t.Error(err)
			return
		}
		if err := send.SendMsgChecked(p, src, dest, size, SendOptions{}); err != nil {
			t.Error(err)
			return
		}

		c.CrashNode(1)
		// Sends at the dead node fail once the budget is spent.
		var sendErr error
		for i := 0; i < 50 && sendErr == nil; i++ {
			sendErr = send.SendMsgChecked(p, src, dest, size, SendOptions{})
		}
		if !errors.Is(sendErr, ErrNodeUnreachable) {
			t.Errorf("send to crashed node = %v, want ErrNodeUnreachable", sendErr)
		}
		// Handles from before the crash are permanently stale.
		if _, err := recv.Read(buf, 1); err == nil {
			// Read has no liveness gate (plain memory), but Export does.
			if err := recv.Export(p, 9, buf, size, nil, false); !errors.Is(err, ErrNodeDown) {
				t.Errorf("export on dead handle = %v, want ErrNodeDown", err)
			}
		}

		if err := c.RestartNode(1); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		// Fresh world on the rebooted node: new process, new export; the
		// importer re-imports (pre-crash exports are gone).
		recv2, err := c.Nodes[1].NewProcess(p)
		if err != nil {
			t.Errorf("process on restarted node: %v", err)
			return
		}
		buf2, _ := recv2.Malloc(size)
		if err := recv2.Export(p, 2, buf2, size, nil, false); err != nil {
			t.Errorf("export on restarted node: %v", err)
			return
		}
		dest2, _, err := send.Import(p, 1, 2)
		if err != nil {
			t.Errorf("re-import after restart: %v", err)
			return
		}
		msg2 := bytes.Repeat([]byte{0xA5}, size)
		if err := send.Write(src, msg2); err != nil {
			t.Error(err)
			return
		}
		if err := send.SendMsgChecked(p, src, dest2, size, SendOptions{}); err != nil {
			t.Errorf("send after restart: %v", err)
			return
		}
		recv2.SpinByte(p, buf2+mem.VirtAddr(size-1), 0xA5)
		got, _ := recv2.Read(buf2, size)
		if !bytes.Equal(got, msg2) {
			t.Error("post-restart transfer corrupted")
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
}

// TestImportFromCrashedNodeTimesOut checks the daemon handshake's
// failure path: importing from a dead exporter retries with backoff and
// then fails with ErrDaemonUnreachable instead of hanging.
func TestImportFromCrashedNodeTimesOut(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := NewCluster(eng, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Go("orphan-import", func(p *simProc) {
		send, _ := c.Nodes[0].NewProcess(p)
		c.CrashNode(1)
		start := p.Now()
		_, _, err := send.Import(p, 1, 1)
		if !errors.Is(err, ErrDaemonUnreachable) {
			t.Errorf("import from crashed node = %v, want ErrDaemonUnreachable", err)
		}
		if took := p.Now() - start; took > 200*sim.Millisecond {
			t.Errorf("import gave up only after %v", took)
		}
		if send.Errors().ImportFailures == 0 {
			t.Error("import failure not counted in process error stats")
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
}

// TestImportRetriesThroughEtherLoss drops 30% of all daemon
// messages: the import handshake must retry and still succeed, and
// idempotently — a repeated request finds the lease its first copy took,
// so each logical import is served once.
func TestImportRetriesThroughEtherLoss(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 0xE77)
	c, err := NewCluster(eng, Options{Nodes: 2, Faults: pl})
	if err != nil {
		t.Fatal(err)
	}
	pl.SetEtherLoss(0.3)
	c.Go("lossy-import", func(p *simProc) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		var dest ProxyAddr
		for tag := uint32(1); tag <= 4; tag++ {
			if err := recv.Export(p, tag, buf, mem.PageSize, nil, false); err != nil {
				t.Error(err)
				return
			}
			d, _, err := send.Import(p, 1, tag)
			if err != nil {
				t.Errorf("import tag %d through lossy ether: %v", tag, err)
				return
			}
			dest = d
		}
		src, _ := send.Malloc(mem.PageSize)
		msg := bytes.Repeat([]byte{0x42}, 256)
		if err := send.Write(src, msg); err != nil {
			t.Error(err)
			return
		}
		if err := send.SendMsgChecked(p, src, dest, len(msg), SendOptions{}); err != nil {
			t.Error(err)
			return
		}
		recv.SpinByte(p, buf+mem.VirtAddr(len(msg)-1), 0x42)
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if counter(t, c.Eng, "ether/messages_dropped") == 0 {
		t.Error("no ether messages dropped at 30% loss")
	}
	if nodeCounter(t, c.Nodes[0], "daemon_import_retries") == 0 {
		t.Error("import succeeded without retries despite ether loss")
	}
	if got := nodeCounter(t, c.Nodes[1], "daemon_imports_served"); got != 4 {
		t.Errorf("daemon_imports_served = %d for 4 imports", got)
	}
}
