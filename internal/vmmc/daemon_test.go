package vmmc

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Daemon protocol edge cases (§4.4).

func TestConcurrentImportsOfOneExport(t *testing.T) {
	// Several importers on different nodes resolve the same export
	// concurrently; the exporter's reference count tracks all of them.
	testCluster(t, 4, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[0].NewProcess(p)
		buf, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		done := 0
		for i := 1; i < 4; i++ {
			i := i
			c.Eng.Go("importer", func(sp *simProc) {
				defer func() { done++ }()
				proc, err := c.Nodes[i].NewProcess(sp)
				if err != nil {
					t.Error(err)
					return
				}
				dest, _, err := proc.Import(sp, 0, 1)
				if err != nil {
					t.Error(err)
					return
				}
				src, _ := proc.Malloc(mem.PageSize)
				if err := proc.Write(src, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				// Each importer writes its own cell.
				if err := proc.SendMsgChecked(sp, src, dest+ProxyAddr(i*8), 1, SendOptions{}); err != nil {
					t.Error(err)
				}
			})
		}
		for done < 3 {
			p.Sleep(sim.Millisecond)
		}
		p.Sleep(5 * sim.Millisecond)
		// Unexport must fail while all three imports are live.
		if err := exp.Unexport(p, 1); err != ErrStillImported {
			t.Errorf("unexport with 3 imports = %v", err)
		}
		for i := 1; i < 4; i++ {
			b, _ := exp.Read(buf+mem.VirtAddr(i*8), 1)
			if b[0] != byte(i) {
				t.Errorf("importer %d write missing", i)
			}
		}
	})
}

func TestUnexportForeignTagRejected(t *testing.T) {
	// A process cannot unexport another process's buffer.
	testCluster(t, 1, func(p *simProc, c *Cluster) {
		owner, _ := c.Nodes[0].NewProcess(p)
		thief, _ := c.Nodes[0].NewProcess(p)
		buf, _ := owner.Malloc(mem.PageSize)
		if err := owner.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := thief.Unexport(p, 1); err != ErrNotExported {
			t.Errorf("foreign unexport = %v, want ErrNotExported", err)
		}
		// Owner can.
		if err := owner.Unexport(p, 1); err != nil {
			t.Errorf("owner unexport = %v", err)
		}
	})
}

// TestImportOfOwnNodeExport runs two processes on the SAME node: loopback
// through the full stack, on every boot mapper's fabric — the exhaustive
// one on a single switch, the central one on a switch chain and on the
// diamond. The central mapper probes node 0's loopback route and composes
// every other node's.
func TestImportOfOwnNodeExport(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		node int
	}{
		{"4 nodes", Options{Nodes: 4}, 1},
		{"13-node chain", Options{Nodes: 13}, 0},
		{"13-node chain off the prober", Options{Nodes: 13}, 7},
		{"diamond", Options{Nodes: 4, BuildFabric: diamondFabric}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			startCluster(t, tc.opts, true, func(p *simProc, c *Cluster) {
				n := c.Nodes[tc.node]
				exp, _ := n.NewProcess(p)
				imp, _ := n.NewProcess(p)
				buf, _ := exp.Malloc(mem.PageSize)
				if err := exp.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
					t.Error(err)
					return
				}
				dest, _, err := imp.Import(p, n.ID, 1)
				if err != nil {
					t.Error(err)
					return
				}
				src, _ := imp.Malloc(mem.PageSize)
				if err := imp.Write(src, []byte("loopback")); err != nil {
					t.Error(err)
					return
				}
				// The packet goes out to the switch and back to the same NIC.
				if err := imp.SendMsgSync(p, src, dest, 8, SendOptions{}); err != nil {
					t.Error(err)
					return
				}
				exp.SpinByte(p, buf, 'l')
				got, _ := exp.Read(buf, 8)
				if string(got) != "loopback" {
					t.Errorf("loopback data = %q", got)
				}
			})
		})
	}
}

func TestExportAfterUnexportReusesTag(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[1].NewProcess(p)
		imp, _ := c.Nodes[0].NewProcess(p)
		buf1, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 1, buf1, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := exp.Unexport(p, 1); err != nil {
			t.Fatal(err)
		}
		buf2, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 1, buf2, mem.PageSize, nil, false); err != nil {
			t.Fatalf("tag reuse failed: %v", err)
		}
		dest, _, err := imp.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Data must land in the NEW buffer.
		src, _ := imp.Malloc(mem.PageSize)
		if err := imp.Write(src, []byte{0x99}); err != nil {
			t.Fatal(err)
		}
		if err := imp.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		exp.SpinByte(p, buf2, 0x99)
		old, _ := exp.Read(buf1, 1)
		if old[0] == 0x99 {
			t.Error("data landed in the unexported buffer")
		}
	})
}

func TestSignalCostChargedForNotification(t *testing.T) {
	// Notifications go through an interrupt plus a signal (§5.1); the
	// handler must fire noticeably later than raw delivery.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 9, buf, mem.PageSize, nil, true); err != nil {
			t.Fatal(err)
		}
		var firedAt sim.Time
		recv.RegisterHandler(9, func(hp *simProc, from ProcID, tag uint32, offset, length int) {
			firedAt = hp.Now()
		})
		dest, _, _ := send.Import(p, 1, 9)
		src, _ := send.Malloc(mem.PageSize)
		if err := send.Write(src, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, 1, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		recv.SpinByte(p, buf, 1)
		deliveredAt := p.Now()
		p.Sleep(sim.Millisecond)
		if firedAt == 0 {
			t.Fatal("handler never fired")
		}
		prof := c.Prof
		minGap := prof.InterruptCost + prof.SignalCost
		if gap := firedAt - deliveredAt; gap < minGap/2 {
			t.Errorf("handler fired %v after delivery, expected at least ~%v (interrupt+signal)", gap, minGap)
		}
	})
}

// TestRestartedImporterGetsFreshReply: node 0 imports tag 10 from node 1,
// crashes, restarts and imports tag 20. The exporter caches import
// replies by (node, request id) to answer retransmissions, so a restarted
// node that numbered its requests from 1 again was answered from the
// cache with tag 10's frames: its send landed in tag 10's buffer and tag
// 20's import count never moved. Request ids are unique for the node's
// life, so the reply is tag 20's own.
func TestRestartedImporterGetsFreshReply(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[1].NewProcess(p)
		bufs := map[uint32]mem.VirtAddr{}
		for _, tag := range []uint32{10, 20} {
			bufs[tag], _ = exp.Malloc(mem.PageSize)
			if err := exp.Export(p, tag, bufs[tag], mem.PageSize, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		imp, _ := c.Nodes[0].NewProcess(p)
		if _, _, err := imp.Import(p, 1, 10); err != nil {
			t.Fatal(err)
		}
		c.CrashNode(0)
		if err := c.RestartNode(0); err != nil {
			t.Fatal(err)
		}
		imp, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		dest, _, err := imp.Import(p, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := imp.Malloc(mem.PageSize)
		if err := imp.Write(src, []byte{0x77}); err != nil {
			t.Fatal(err)
		}
		if err := imp.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		for tag, want := range map[uint32]byte{10: 0, 20: 0x77} {
			if got, _ := exp.Read(bufs[tag], 1); got[0] != want {
				t.Errorf("tag %d's buffer holds %#x, want %#x", tag, got[0], want)
			}
		}
		if err := exp.Unexport(p, 20); !errors.Is(err, ErrStillImported) {
			t.Errorf("Unexport(20) while imported = %v, want ErrStillImported", err)
		}
	})
}
