package vmmc

import (
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Daemon protocol edge cases (§4.4).

func TestConcurrentImportsOfOneExport(t *testing.T) {
	// Several importers on different nodes resolve the same export
	// concurrently; the exporter holds a lease for each of them, and
	// unexports once all three have unimported.
	testCluster(t, 4, func(p *simProc, c *Cluster) {
		exp, _ := c.Nodes[0].NewProcess(p)
		buf, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		done := 0
		procs := make([]*Process, 4)
		dests := make([]ProxyAddr, 4)
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
				procs[i], dests[i] = proc, dest
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
		for i := 1; i < 4; i++ {
			if procs[i] == nil {
				return
			}
			if err := procs[i].Unimport(p, dests[i]); err != nil {
				t.Errorf("importer %d unimport = %v", i, err)
			}
		}
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("unexport after all three unimports = %v", err)
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
		recv.RegisterHandler(9, func(from ProcID, tag uint32, offset, length int) {
			firedAt = c.Eng.Now()
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
// crashes, restarts and imports tag 20. The exporter knows a request by
// (node, request id), so a restarted node that numbered its requests from
// 1 again could be answered as its previous life was, with tag 10's
// frames. Request ids are unique for the node's life, so the reply is tag
// 20's own, and its lease holds tag 20's export.
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

// Leases: the exporter holds one per live import, and nothing else per
// import.

// exportOn exports a fresh page under tag from a new process on node.
func exportOn(t *testing.T, p *simProc, c *Cluster, node int, tag uint32) *Process {
	t.Helper()
	exp, err := c.Nodes[node].NewProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := exp.Malloc(mem.PageSize)
	if err := exp.Export(p, tag, buf, mem.PageSize, nil, false); err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestKilledImporterReleasesLease: the kill itself passes no virtual
// time, so the lease is still held right after it; the importing node's
// daemon then releases it over the Ethernet on the dead process's behalf.
// A second kill while that release is in flight queues behind it.
func TestKilledImporterReleasesLease(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp := exportOn(t, p, c, 1, 1)
		var imps []*Process
		for i := 0; i < 2; i++ {
			imp, _ := c.Nodes[0].NewProcess(p)
			if _, _, err := imp.Import(p, 1, 1); err != nil {
				t.Fatal(err)
			}
			imps = append(imps, imp)
		}
		c.Nodes[0].KillProcess(imps[0].Pid)
		if err := exp.Unexport(p, 1); !errors.Is(err, ErrStillImported) {
			t.Errorf("Unexport at the kill = %v, want ErrStillImported", err)
		}
		c.Nodes[0].KillProcess(imps[1].Pid)
		p.Sleep(10 * sim.Millisecond)
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("Unexport after the release round trips = %v", err)
		}
	})
}

// TestCrashEndsLeaseRelease: the kill's release loses its first datagram,
// and the importer's node crashes before the retransmission: the crash
// ends the release, so the dead node sends nothing more, and the lease
// goes when the node restarts.
func TestCrashEndsLeaseRelease(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 1)
	c, err := NewCluster(eng, Options{Nodes: 2, Faults: pl})
	if err != nil {
		t.Fatal(err)
	}
	c.Go("crash-mid-release", func(p *simProc) {
		exp := exportOn(t, p, c, 1, 1)
		imp, _ := c.Nodes[0].NewProcess(p)
		if _, _, err := imp.Import(p, 1, 1); err != nil {
			t.Fatal(err)
		}
		pl.SetEtherLoss(1)
		c.Nodes[0].KillProcess(imp.Pid)
		p.Sleep(sim.Millisecond)
		c.CrashNode(0)
		pl.SetEtherLoss(0)
		sent := counter(t, eng, "ether/messages_sent")
		p.Sleep(100 * sim.Millisecond)
		if got := counter(t, eng, "ether/messages_sent"); got != sent {
			t.Errorf("%d datagrams sent after the crash", got-sent)
		}
		if err := exp.Unexport(p, 1); !errors.Is(err, ErrStillImported) {
			t.Errorf("Unexport with the importer's node down = %v, want ErrStillImported", err)
		}
		if err := c.RestartNode(0); err != nil {
			t.Fatal(err)
		}
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("Unexport after the restart = %v", err)
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartedImporterNodeLosesLeases: a crash sends nothing, and the
// restart announcement drops every lease the node held, with healing off.
// Another node's lease on the same exporter stays.
func TestRestartedImporterNodeLosesLeases(t *testing.T) {
	testCluster(t, 3, func(p *simProc, c *Cluster) {
		exp := exportOn(t, p, c, 1, 1)
		buf, _ := exp.Malloc(mem.PageSize)
		if err := exp.Export(p, 2, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		imp, _ := c.Nodes[0].NewProcess(p)
		for _, tag := range []uint32{1, 2} {
			if _, _, err := imp.Import(p, 1, tag); err != nil {
				t.Fatal(err)
			}
		}
		other, _ := c.Nodes[2].NewProcess(p)
		if _, _, err := other.Import(p, 1, 2); err != nil {
			t.Fatal(err)
		}
		c.CrashNode(0)
		if err := c.RestartNode(0); err != nil {
			t.Fatal(err)
		}
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("Unexport(1) after the importer's node restarted = %v", err)
		}
		if err := exp.Unexport(p, 2); !errors.Is(err, ErrStillImported) {
			t.Errorf("Unexport(2) with node 2's import live = %v, want ErrStillImported", err)
		}
	})
}

// TestLostUnimportReleasesLease: the first unimport datagram is dropped,
// and its retransmission releases the lease. Unimport blocks until the
// acknowledgement, so the loss is lifted by an event, not by the caller.
func TestLostUnimportReleasesLease(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	pl := fault.NewPlan(eng, 1)
	c, err := NewCluster(eng, Options{Nodes: 2, Faults: pl})
	if err != nil {
		t.Fatal(err)
	}
	c.Go("lost-unimport", func(p *simProc) {
		exp := exportOn(t, p, c, 1, 1)
		imp, _ := c.Nodes[0].NewProcess(p)
		dest, _, err := imp.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		pl.SetEtherLoss(1)
		c.Eng.After(sim.Millisecond, func() { pl.SetEtherLoss(0) })
		if err := imp.Unimport(p, dest); err != nil {
			t.Errorf("Unimport through one lost datagram = %v", err)
		}
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("Unexport after the retransmitted release = %v", err)
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, eng, "ether/messages_dropped"); got != 1 {
		t.Errorf("ether/messages_dropped = %d, want 1", got)
	}
	if got := nodeCounter(t, c.Nodes[0], "daemon_import_retries"); got != 1 {
		t.Errorf("daemon_import_retries = %d, want 1 (the release's)", got)
	}
}

// TestCloseGivesUpOnUnackedLeaseRelease: Close gives up on a release no
// daemon acknowledges and tears the process down all the same.
func TestCloseGivesUpOnUnackedLeaseRelease(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exportOn(t, p, c, 1, 1)
		imp, _ := c.Nodes[0].NewProcess(p)
		if _, _, err := imp.Import(p, 1, 1); err != nil {
			t.Fatal(err)
		}
		c.CrashNode(1)
		if err := imp.Close(p); err != nil {
			t.Errorf("Close with the exporter down = %v", err)
		}
		if _, ok := c.Nodes[0].Process(imp.Pid); ok || len(imp.imports) != 0 {
			t.Error("Close left the process registered or its import recorded")
		}
	})
}

// TestRevalidateKeepsOneLease: revalidating an import whose exporter did
// not restart swaps its lease for the new one, so one Unimport frees the
// export.
func TestRevalidateKeepsOneLease(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp := exportOn(t, p, c, 1, 1)
		imp, _ := c.Nodes[0].NewProcess(p)
		dest, _, err := imp.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := imp.RevalidateImport(p, dest); err != nil {
			t.Fatal(err)
		}
		if n := len(c.Nodes[1].Daemon.exports[1].leases); n != 1 {
			t.Errorf("exporter holds %d leases after a revalidation, want 1", n)
		}
		if err := imp.Unimport(p, dest); err != nil {
			t.Fatal(err)
		}
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("Unexport after the revalidated import's Unimport = %v", err)
		}
	})
}

// daemonTables counts the entries of every map and slice a daemon keeps,
// by field name, with its exports' leases under "leases".
func daemonTables(d *Daemon) map[string]int {
	counts := map[string]int{}
	v := reflect.ValueOf(d).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map || f.Kind() == reflect.Slice {
			counts[v.Type().Field(i).Name] = f.Len()
		}
	}
	for _, info := range d.exports {
		counts["leases"] += len(info.leases)
	}
	return counts
}

// TestImportCyclesLeaveNoLease: 50 import/close cycles against one export
// leave every table of both daemons as the export alone left it: no
// lease, no reply pending, nothing else kept per import.
func TestImportCyclesLeaveNoLease(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		exp := exportOn(t, p, c, 1, 1)
		before := []map[string]int{daemonTables(c.Nodes[0].Daemon), daemonTables(c.Nodes[1].Daemon)}
		for i := 0; i < 50; i++ {
			imp, err := c.Nodes[0].NewProcess(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := imp.Import(p, 1, 1); err != nil {
				t.Fatal(err)
			}
			if err := imp.Close(p); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range c.Nodes {
			if after := daemonTables(n.Daemon); !maps.Equal(after, before[i]) {
				t.Errorf("node %d's daemon tables after 50 closes = %v, before %v", n.ID, after, before[i])
			}
		}
		if err := exp.Unexport(p, 1); err != nil {
			t.Errorf("Unexport after 50 cycles = %v", err)
		}
	})
}

// TestCloseReleasesLeasesInProxyPageOrder: a process imports from nodes
// 3, 1 and 2, in that order, so their imports take ascending proxy pages,
// and is torn down; each exporter must see its lease go in that order, in
// ten fresh clusters, for Close and for a kill alike. A teardown that
// walked its imports in Go map order would pass all ten only by chance.
func TestCloseReleasesLeasesInProxyPageOrder(t *testing.T) {
	exporters := []int{3, 1, 2}
	for _, kill := range []bool{false, true} {
		for run := 0; run < 10; run++ {
			var released []int
			testCluster(t, 4, func(p *simProc, c *Cluster) {
				for _, node := range exporters {
					exportOn(t, p, c, node, 1)
				}
				imp, _ := c.Nodes[0].NewProcess(p)
				for _, node := range exporters {
					if _, _, err := imp.Import(p, node, 1); err != nil {
						t.Fatal(err)
					}
				}
				// Sampled every 10 us, far finer than the 2 ms a
				// release's Ethernet round trip takes.
				c.Eng.Go("watcher", func(wp *simProc) {
					for end := wp.Now() + 100*sim.Millisecond; wp.Now() < end && len(released) < len(exporters); {
						wp.Sleep(10 * sim.Microsecond)
						for _, node := range exporters {
							if len(c.Nodes[node].Daemon.exports[1].leases) == 0 && !slices.Contains(released, node) {
								released = append(released, node)
							}
						}
					}
				})
				if kill {
					c.Nodes[0].KillProcess(imp.Pid)
				} else if err := imp.Close(p); err != nil {
					t.Fatal(err)
				}
			})
			if !slices.Equal(released, exporters) {
				t.Fatalf("kill=%v run %d: leases released by nodes %v, want %v", kill, run, released, exporters)
			}
		}
	}
}
