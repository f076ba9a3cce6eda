package vmmc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestNodeProcessLookup(t *testing.T) {
	testCluster(t, 1, func(p *simProc, c *Cluster) {
		proc, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Nodes[0].Process(proc.Pid)
		if !ok || got != proc {
			t.Errorf("Process(%d) = %v,%v", proc.Pid, got, ok)
		}
		if _, ok := c.Nodes[0].Process(999); ok {
			t.Error("lookup of unknown pid succeeded")
		}
	})
}

func TestDaemonStats(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[1].NewProcess(p)
		imp, _ := c.Nodes[0].NewProcess(p)
		buf, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := imp.Import(p, 1, 1); err != nil {
			t.Fatal(err)
		}
		exports := nodeCounter(t, c.Nodes[1], "daemon_exports")
		imports := nodeCounter(t, c.Nodes[1], "daemon_imports_served")
		if exports != 1 || imports != 1 {
			t.Errorf("daemon stats = %d exports, %d imports", exports, imports)
		}
	})
}

func TestIncomingFrameOwner(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[1].NewProcess(p)
		buf, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		pa, _ := exp.AS.Translate(buf)
		e, ok := c.Nodes[1].LCP.incoming.lookup(pa)
		if !ok || e.owner != exp.Pid {
			t.Errorf("incoming owner = %d,%v, want %d", e.owner, ok, exp.Pid)
		}
		// A frame that was never exported has no owner.
		other, _ := exp.Malloc(mem.PageSize)
		pa2, _ := exp.AS.Translate(other)
		if _, ok := c.Nodes[1].LCP.incoming.lookup(pa2); ok {
			t.Error("unexported frame has an owner")
		}
	})
}

func TestPollUntilParksBetweenDeposits(t *testing.T) {
	// A PollUntil-based server must observe a deposit promptly but not
	// generate events while idle (the cluster terminates).
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)

		var seenAt sim.Time
		c.Eng.Go("poller", func(pp *simProc) {
			pp.SetDaemon(true)
			recv.PollUntil(pp, func() bool {
				b, err := recv.Read(buf, 1)
				return err == nil && b[0] == 0x42
			})
			seenAt = pp.Now()
		})

		src, _ := send.Malloc(mem.PageSize)
		if err := send.Write(src, []byte{0x42}); err != nil {
			t.Fatal(err)
		}
		sentAt := p.Now()
		if err := send.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if seenAt == 0 {
			t.Fatal("poller never observed the deposit")
		}
		if d := seenAt - sentAt; d > 100*sim.Microsecond {
			t.Errorf("poller observed deposit %v after send; too slow", d)
		}
	})
}

func TestCompletionErrorMapping(t *testing.T) {
	cases := []struct {
		code uint32
		want error
	}{
		{ceOK, nil},
		{ceNotImported, ErrNotImported},
		{ceOutOfRange, ErrOutOfRange},
	}
	for _, c := range cases {
		if got := completionError(c.code); got != c.want {
			t.Errorf("completionError(%d) = %v, want %v", c.code, got, c.want)
		}
	}
	if completionError(ceNoRoute) == nil || completionError(ceBadSource) == nil || completionError(77) == nil {
		t.Error("non-OK codes must map to errors")
	}
}

func TestSendQueueFillsAndLibrarySpins(t *testing.T) {
	// Posting more requests than the ring holds must not lose any: the
	// library spins for a slot and every message still lands.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const count = 3 * sendQueueEntries
		exportLen := (count*16 + mem.PageSize - 1) &^ (mem.PageSize - 1)
		full, _ := recv.Malloc(exportLen)
		if err := recv.Export(p, 1, full, exportLen, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(mem.PageSize)
		for i := 0; i < count; i++ {
			if err := send.Write(src, []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
			// Short sends capture data at post, so reuse is safe.
			if _, err := send.SendMsg(p, src, dest+ProxyAddr(i*16), 1, SendOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		recv.SpinByte(p, full+mem.VirtAddr((count-1)*16), byte(count))
		for i := 0; i < count; i++ {
			b, _ := recv.Read(full+mem.VirtAddr(i*16), 1)
			if b[0] != byte(i+1) {
				t.Fatalf("message %d lost or corrupted (%d)", i, b[0])
			}
		}
	})
}

func TestMaxTransferEightMegabytes(t *testing.T) {
	// One SendMsg can carry the full 8 MB import capacity (§4.5: long
	// requests up to 8 MBytes).
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 8 << 20
		buf, err := recv.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, n, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n != size {
			t.Fatalf("import = %d", n)
		}
		src, err := send.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := send.Write(src+size-4, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinByte(p, buf+size-1, 4)
		got, _ := recv.Read(buf+size-4, 4)
		if got[0] != 1 || got[3] != 4 {
			t.Error("8MB transfer corrupted its tail")
		}
		if n := nodeCounter(t, c.Nodes[0], "lcp_packets_out"); n < size/mem.PageSize {
			t.Errorf("8MB message sent in %d packets, want >= %d chunks", n, size/mem.PageSize)
		}
	})
}

func TestImportCapacityReusableAfterUnimport(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[1].NewProcess(p)
		imp, _ := c.Nodes[0].NewProcess(p)
		const size = 4 << 20
		b1, _ := exp.Malloc(size)
		b2, _ := exp.Malloc(size)
		if err := exp.Export(p, 1, b1, size, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := exp.Export(p, 2, b2, size, nil, false); err != nil {
			t.Fatal(err)
		}
		d1, _, err := imp.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := imp.Import(p, 1, 2); err != nil {
			t.Fatal(err)
		}
		// Table full (8MB); freeing the first import makes room again.
		b3, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 3, b3, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := imp.Import(p, 1, 3); err != ErrImportTooBig {
			t.Fatalf("overfull import got %v", err)
		}
		if err := imp.Unimport(p, d1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := imp.Import(p, 1, 3); err != nil {
			t.Errorf("import after unimport failed: %v", err)
		}
	})
}

func TestLCPStatsAccounting(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(4 * mem.PageSize)
		if err := recv.Export(p, 1, buf, 4*mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(4 * mem.PageSize)
		if err := send.SendMsgChecked(p, src, dest, 64, SendOptions{}); err != nil {
			t.Fatal(err) // short
		}
		if err := send.SendMsgSync(p, src, dest, 3*mem.PageSize, SendOptions{}); err != nil {
			t.Fatal(err) // long
		}
		p.Sleep(sim.Millisecond)
		s, r := c.Nodes[0], c.Nodes[1]
		if short, long := nodeCounter(t, s, "lcp_sends_short"), nodeCounter(t, s, "lcp_sends_long"); short != 1 || long != 1 {
			t.Errorf("sends = %d short, %d long", short, long)
		}
		if n := nodeCounter(t, s, "lcp_bytes_out"); n != 64+3*mem.PageSize {
			t.Errorf("bytes out = %d", n)
		}
		if n := nodeCounter(t, r, "lcp_bytes_in"); n != 64+3*mem.PageSize {
			t.Errorf("bytes in = %d", n)
		}
		if n := nodeCounter(t, r, "lcp_packets_in"); n != 1+3 {
			t.Errorf("packets in = %d, want 4 (1 short + 3 chunks)", n)
		}
	})
}

func TestClusterStatsSnapshot(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(4 * mem.PageSize)
		if err := recv.Export(p, 1, buf, 4*mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(4 * mem.PageSize)
		if err := send.SendMsgSync(p, src, dest, 3*mem.PageSize, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		st := c.Stats()
		if len(st.Nodes) != 2 {
			t.Fatalf("nodes = %d", len(st.Nodes))
		}
		if st.Nodes[0].LCP.SendsLong != 1 {
			t.Errorf("node0 long sends = %d", st.Nodes[0].LCP.SendsLong)
		}
		// Every field is a read of the counter its comment names.
		for i, ns := range st.Nodes {
			n := c.Nodes[i]
			for _, f := range []struct {
				got  int64
				name string
			}{
				{ns.LCP.PacketsOut, fmt.Sprintf("node%d/lcp_packets_out", i)},
				{ns.LCP.MainLoopIterations, fmt.Sprintf("node%d/lcp_main_loop_iterations", i)},
				{ns.LCP.SendsShort, fmt.Sprintf("node%d/lcp_sends_short", i)},
				{ns.LCP.SendsLong, fmt.Sprintf("node%d/lcp_sends_long", i)},
				{ns.LCP.TLBMissStalls, fmt.Sprintf("node%d/tlb_miss_stalls", i)},
				{ns.HostDMATransfers, fmt.Sprintf("dma:lanai%d:host/transfers", i)},
				{ns.Interrupts, fmt.Sprintf("lanai%d/interrupts", i)},
				{ns.Notifications, fmt.Sprintf("node%d/notifications_delivered", i)},
			} {
				if want := counter(t, n.Eng, f.name); f.got != want {
					t.Errorf("node %d: Stats read %d, %s is %d", i, f.got, f.name, want)
				}
			}
			if ns.ReliabilityRetx != 0 || ns.ReliabilityStalls != 0 {
				t.Errorf("node %d: link-layer counts %d, %d without a link layer", i, ns.ReliabilityRetx, ns.ReliabilityStalls)
			}
		}
	})
}

// A double release must not pass for a clean teardown: releasing more
// pinned frames than a process holds panics and names the culprit.
func TestReleasePinUnderflowPanics(t *testing.T) {
	st := &lcpProcState{node: 3, pid: 7}
	st.chargePin(1)
	st.releasePin(1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "node 3 pid 7") {
			t.Errorf("double release recovered %q, want a panic naming node 3 pid 7", msg)
		}
	}()
	st.releasePin(1)
}
