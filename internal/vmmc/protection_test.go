package vmmc

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The VMMC protection model (§2, §4.4): transfers may only land inside
// exported buffers, only importers permitted by the exporter may import,
// and a process can only name destinations through its own outgoing page
// table.

func TestImportRestrictionEnforced(t *testing.T) {
	testCluster(t, 3, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[0].NewProcess(p)
		allowedProc, _ := c.Nodes[1].NewProcess(p)
		deniedProc, _ := c.Nodes[2].NewProcess(p)

		buf, _ := exp.Malloc(mem.PageSize)
		// Only (node1, pid of allowedProc) may import.
		err := exp.Export(p, 5, buf, mem.PageSize, []ProcID{allowedProc.ID()}, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := allowedProc.Import(p, 0, 5); err != nil {
			t.Errorf("allowed importer rejected: %v", err)
		}
		if _, _, err := deniedProc.Import(p, 0, 5); err != ErrDenied {
			t.Errorf("denied importer got %v, want ErrDenied", err)
		}
	})
}

func TestImportNonexistentExport(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		proc, _ := c.Nodes[0].NewProcess(p)
		if _, _, err := proc.Import(p, 1, 999); err != ErrNoSuchExport {
			t.Errorf("got %v, want ErrNoSuchExport", err)
		}
	})
}

func TestSendBeyondImportedBufferFails(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)

		const exported = 2*mem.PageSize + 100 // partial final page
		buf, _ := recv.Malloc(3 * mem.PageSize)
		if err := recv.Export(p, 1, buf, exported, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, n, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n != exported {
			t.Fatalf("import length %d, want %d", n, exported)
		}
		src, _ := send.Malloc(4 * mem.PageSize)

		// Overrunning the buffer end must fail, even though the final
		// frame itself is partially writable.
		if err := send.SendMsgChecked(p, src, dest, exported+1, SendOptions{}); err != ErrOutOfRange {
			t.Errorf("overrun send got %v, want ErrOutOfRange", err)
		}
		// Offset + length crossing the end must fail too.
		off := ProxyAddr(2 * mem.PageSize)
		if err := send.SendMsgChecked(p, src, dest+off, 101, SendOptions{}); err != ErrOutOfRange {
			t.Errorf("tail overrun got %v, want ErrOutOfRange", err)
		}
		// Exactly filling the buffer succeeds.
		if err := send.SendMsgSync(p, src, dest, exported, SendOptions{}); err != nil {
			t.Errorf("exact-fit send failed: %v", err)
		}
		// Last valid byte succeeds.
		if err := send.SendMsgChecked(p, src, dest+ProxyAddr(exported-1), 1, SendOptions{}); err != nil {
			t.Errorf("last-byte send failed: %v", err)
		}
	})
}

func TestSendToUnimportedProxyFails(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		send, _ := c.Nodes[0].NewProcess(p)
		src, _ := send.Malloc(mem.PageSize)
		if err := send.SendMsgChecked(p, src, ProxyAddr(0), 16, SendOptions{}); err != ErrNotImported {
			t.Errorf("got %v, want ErrNotImported", err)
		}
		if err := send.SendMsgChecked(p, src, ProxyAddr(500*mem.PageSize), 16, SendOptions{}); err != ErrNotImported {
			t.Errorf("got %v, want ErrNotImported", err)
		}
	})
}

func TestOutgoingTablesArePerProcess(t *testing.T) {
	// Process 2 must not be able to use proxy addresses that process 1
	// set up: the same numeric proxy address resolves through process 2's
	// own (empty) outgoing page table (§4.4).
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		p1, _ := c.Nodes[0].NewProcess(p)
		p2, _ := c.Nodes[0].NewProcess(p)

		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, []ProcID{p1.ID()}, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := p1.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		src1, _ := p1.Malloc(mem.PageSize)
		if err := p1.SendMsgSync(p, src1, dest, 64, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		// p2 reuses p1's numeric proxy address: must be rejected locally.
		src2, _ := p2.Malloc(mem.PageSize)
		if err := p2.SendMsgChecked(p, src2, dest, 64, SendOptions{}); err != ErrNotImported {
			t.Errorf("cross-process proxy use got %v, want ErrNotImported", err)
		}
	})
}

func TestTransferNeverWritesOutsideBuffer(t *testing.T) {
	// Fill the receiver's pages around the exported buffer with sentinel
	// bytes; after a storm of edge-case transfers they must be intact.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)

		region, _ := recv.Malloc(4 * mem.PageSize)
		buf := region + mem.PageSize // middle 2 pages exported
		const exported = 2 * mem.PageSize
		sentinel := make([]byte, mem.PageSize)
		for i := range sentinel {
			sentinel[i] = 0xEE
		}
		if err := recv.Write(region, sentinel); err != nil {
			t.Fatal(err)
		}
		if err := recv.Write(region+3*mem.PageSize, sentinel); err != nil {
			t.Fatal(err)
		}
		if err := recv.Export(p, 1, buf, exported, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(3 * mem.PageSize)
		payload := make([]byte, 3*mem.PageSize)
		for i := range payload {
			payload[i] = 0x11
		}
		if err := send.Write(src, payload); err != nil {
			t.Fatal(err)
		}

		cases := []struct {
			off ProxyAddr
			n   int
		}{
			{0, exported},
			{0, 1},
			{exported - 1, 1},
			{1, exported - 1},
			{mem.PageSize - 1, 2}, // crosses interior page boundary
			{100, mem.PageSize},
		}
		for _, cse := range cases {
			if err := send.SendMsgChecked(p, src, dest+cse.off, cse.n, SendOptions{}); err != nil {
				t.Errorf("send off=%d n=%d: %v", cse.off, cse.n, err)
			}
		}
		// Out-of-range attempts that must be rejected at the sender.
		bad := []struct {
			off ProxyAddr
			n   int
		}{
			{0, exported + 1},
			{exported, 1},
			{exported - 1, 2},
		}
		for _, cse := range bad {
			if err := send.SendMsgChecked(p, src, dest+cse.off, cse.n, SendOptions{}); err == nil {
				t.Errorf("send off=%d n=%d succeeded, want rejection", cse.off, cse.n)
			}
		}

		// Drain everything in flight.
		fin, _ := send.Malloc(mem.PageSize)
		if err := send.Write(fin, []byte{0x77}); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, fin, dest, 1, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinByte(p, buf, 0x77)

		for _, va := range []mem.VirtAddr{region, region + 3*mem.PageSize} {
			got, err := recv.Read(va, mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range got {
				if b != 0xEE {
					t.Fatalf("sentinel page at %#x corrupted at byte %d (%#x)", va, i, b)
				}
			}
		}
	})
}

func TestForgedPacketRejectedByIncomingTable(t *testing.T) {
	// A raw packet aimed at a frame that was never exported must be
	// dropped by the incoming page table check and counted as a
	// protection violation.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		victim, _ := c.Nodes[1].NewProcess(p)
		secret, _ := victim.Malloc(mem.PageSize)
		if err := victim.Write(secret, []byte("secret data")); err != nil {
			t.Fatal(err)
		}
		pa, err := victim.AS.Translate(secret)
		if err != nil {
			t.Fatal(err)
		}

		// Forge a packet straight onto the wire targeting the secret.
		hdr := msgHeader{
			DataLen: 6,
			Addr1:   pa,
			Len1:    6,
		}
		payload := append(hdr.appendTo(nil), []byte("OWNED!")...)
		nic := c.Net.NICs()[0]
		before := nodeCounter(t, c.Nodes[1], "lcp_protection_violations")
		c.Eng.Go("forger", func(fp *simProc) {
			nic.Send(fp, []byte{1}, payload)
		})
		p.Sleep(sim.Millisecond)

		if got := nodeCounter(t, c.Nodes[1], "lcp_protection_violations"); got != before+1 {
			t.Errorf("protection violations = %d, want %d", got, before+1)
		}
		data, _ := victim.Read(secret, 11)
		if string(data) != "secret data" {
			t.Errorf("victim memory overwritten: %q", data)
		}
	})
}

func TestExportValidation(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		proc, _ := c.Nodes[0].NewProcess(p)
		buf, _ := proc.Malloc(2 * mem.PageSize)

		if err := proc.Export(p, 1, buf+1, mem.PageSize, nil, false); err != ErrNotAligned {
			t.Errorf("unaligned export got %v, want ErrNotAligned", err)
		}
		if err := proc.Export(p, 1, buf, 0, nil, false); err != ErrBadBuffer {
			t.Errorf("zero-length export got %v, want ErrBadBuffer", err)
		}
		if err := proc.Export(p, 1, buf, 5*mem.PageSize, nil, false); err != ErrBadBuffer {
			t.Errorf("unmapped export got %v, want ErrBadBuffer", err)
		}
		if err := proc.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := proc.Export(p, 1, buf+mem.PageSize, mem.PageSize, nil, false); err != ErrAlreadyInUse {
			t.Errorf("duplicate tag got %v, want ErrAlreadyInUse", err)
		}
	})
}

func TestUnexportLifecycle(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[1].NewProcess(p)
		imp, _ := c.Nodes[0].NewProcess(p)

		buf, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := imp.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Unexport while imported must fail.
		if err := exp.Unexport(p, 1); err != ErrStillImported {
			t.Errorf("unexport with live import got %v, want ErrStillImported", err)
		}
		if err := imp.Unimport(p, dest); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * sim.Millisecond) // let the unimport message reach the exporter
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("unexport after unimport failed: %v", err)
		}
		// Sends to the dropped proxy must fail.
		src, _ := imp.Malloc(mem.PageSize)
		if err := imp.SendMsgChecked(p, src, dest, 8, SendOptions{}); err != ErrNotImported {
			t.Errorf("send after unimport got %v, want ErrNotImported", err)
		}
		// The frames must be unpinned again (status page stays pinned).
		pa, _ := exp.AS.Translate(buf)
		if exp.Node.Phys.Pinned(pa.Frame()) {
			t.Error("exported frame still pinned after unexport")
		}
	})
}

func TestSendValidationAtLibrary(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(mem.PageSize)

		if _, err := send.SendMsg(p, src, dest, 0, SendOptions{}); err != ErrBadBuffer {
			t.Errorf("zero-length send got %v", err)
		}
		if _, err := send.SendMsg(p, src, dest, 9<<20, SendOptions{}); err != ErrTooLong {
			t.Errorf("9MB send got %v, want ErrTooLong", err)
		}
		if _, err := send.SendMsg(p, src+2*mem.PageSize, dest, 8, SendOptions{}); err != ErrBadBuffer {
			t.Errorf("unmapped source got %v, want ErrBadBuffer", err)
		}
	})
}
