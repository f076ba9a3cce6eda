package vmmc

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestNotificationInvokesHandler(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)

		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 9, buf, mem.PageSize, nil, true); err != nil {
			t.Fatal(err)
		}
		var gotTag uint32
		var gotOffset, gotLen int
		var gotFrom ProcID
		var fired int
		var firedAt sim.Time
		recv.RegisterHandler(9, func(from ProcID, tag uint32, offset, length int) {
			fired++
			gotFrom, gotTag, gotOffset, gotLen = from, tag, offset, length
			firedAt = c.Eng.Now()
		})

		dest, _, err := send.Import(p, 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(mem.PageSize)
		if err := send.Write(src, []byte("notify me")); err != nil {
			t.Fatal(err)
		}
		sent := p.Now()
		if err := send.SendMsgSync(p, src, dest+100, 9, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)

		if fired != 1 {
			t.Fatalf("handler fired %d times, want 1", fired)
		}
		if gotTag != 9 || gotOffset != 100 || gotLen != 9 {
			t.Errorf("handler got tag=%d offset=%d len=%d, want 9/100/9", gotTag, gotOffset, gotLen)
		}
		if gotFrom != send.ID() {
			t.Errorf("handler got from=%+v, want %+v", gotFrom, send.ID())
		}
		// The data must already be in memory when the handler runs
		// (notification fires after delivery, §2).
		data, _ := recv.Read(buf+100, 9)
		if string(data) != "notify me" {
			t.Errorf("buffer = %q at notification time", data)
		}
		// Signal delivery costs interrupt + signal time.
		if firedAt < sent {
			t.Error("handler fired before send")
		}
	})
}

func TestNoNotificationWithoutFlag(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 9, buf, mem.PageSize, nil, true); err != nil {
			t.Fatal(err)
		}
		fired := 0
		recv.RegisterHandler(9, func(from ProcID, tag uint32, offset, length int) { fired++ })
		dest, _, _ := send.Import(p, 1, 9)
		src, _ := send.Malloc(mem.PageSize)
		if err := send.SendMsgSync(p, src, dest, 64, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if fired != 0 {
			t.Errorf("handler fired %d times without Notify flag", fired)
		}
	})
}

func TestNotificationSuppressedWhenExportForbidsIt(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		// notifyOK = false: senders may not raise notifications here.
		if err := recv.Export(p, 9, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		fired := 0
		recv.RegisterHandler(9, func(from ProcID, tag uint32, offset, length int) { fired++ })
		dest, _, _ := send.Import(p, 1, 9)
		src, _ := send.Malloc(mem.PageSize)
		if err := send.SendMsgSync(p, src, dest, 64, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if fired != 0 {
			t.Errorf("handler fired %d times though export forbids notification", fired)
		}
	})
}

func TestNotificationOnLongSendFiresOnceAfterLastChunk(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 4 * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 9, buf, size, nil, true); err != nil {
			t.Fatal(err)
		}
		fired := 0
		complete := false
		gotOffset, gotLen := -1, -1
		recv.RegisterHandler(9, func(from ProcID, tag uint32, offset, length int) {
			fired++
			gotOffset, gotLen = offset, length
			// All bytes of the message must be visible.
			last, _ := recv.Read(buf+size-1, 1)
			complete = last[0] == 0x5A
		})
		dest, _, _ := send.Import(p, 1, 9)
		src, _ := send.Malloc(size)
		if err := send.Write(src+size-1, []byte{0x5A}); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if fired != 1 {
			t.Fatalf("handler fired %d times for a chunked message, want 1", fired)
		}
		if !complete {
			t.Error("notification fired before the whole message was delivered")
		}
		// Message-level notification: base offset and total length of the
		// whole chunked message, not the final chunk's.
		if gotOffset != 0 || gotLen != size {
			t.Errorf("notification reported offset=%d len=%d, want 0/%d", gotOffset, gotLen, size)
		}
	})
}

// lossyNotifyRig runs body on the paper's link with a fault plan armed on
// the fabric: node 1's process exports 4 pages under tag 9 with
// notifications on, node 0's process imports them, and every notification
// the handler sees is collected in order. sendNotify sends n bytes at
// offset off with Notify and gives the notification a millisecond.
func lossyNotifyRig(t *testing.T, body func(p *simProc, c *Cluster, pl *fault.Plan, notes *[]note, sendNotify func(off, n int) bool)) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		pl := fault.NewPlan(c.Eng, 1)
		c.Net.SetFaults(pl)
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 4 * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 9, buf, size, nil, true); err != nil {
			t.Error(err)
			return
		}
		var notes []note
		recv.RegisterHandler(9, func(from ProcID, tag uint32, offset, length int) {
			notes = append(notes, note{offset, length})
		})
		dest, _, err := send.Import(p, 1, 9)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(size)
		body(p, c, pl, &notes, func(off, n int) bool {
			if err := send.SendMsgSync(p, src, dest+ProxyAddr(off), n, SendOptions{Notify: true}); err != nil {
				t.Error(err)
				return false
			}
			p.Sleep(sim.Millisecond)
			return true
		})
	})
}

type note struct{ offset, length int }

// TestLostFinalChunkLeavesNextNotificationItsOwn pins what §4.2's
// detect-but-don't-recover link costs the notification path: when the
// final chunk of a notifying long send dies on the wire (a bit error the
// receiver's CRC check catches), no notification fires, and the next
// notifying message from the same sender on the same export reports its
// own extent. A receiver that accumulated extents across chunks reported
// the merged {0, 4196} for that next message.
func TestLostFinalChunkLeavesNextNotificationItsOwn(t *testing.T) {
	lossyNotifyRig(t, func(p *simProc, c *Cluster, pl *fault.Plan, notes *[]note, sendNotify func(off, n int) bool) {
		if !sendNotify(3*mem.PageSize, 64) {
			return
		}
		if len(*notes) != 1 || (*notes)[0] != (note{3 * mem.PageSize, 64}) {
			t.Errorf("single-chunk notification: %v, want [{%d 64}]", *notes, 3*mem.PageSize)
			return
		}

		// Two chunks at offset 0; the fault is armed once the first chunk
		// has left the sender's NIC, so it hits exactly the second.
		nic := c.Nodes[0].Board.NIC
		injected := fmt.Sprintf("nic%d/packets_injected", nic.ID)
		before := counter(t, c.Eng, injected)
		c.Eng.Go("arm-fault", func(wp *simProc) {
			wp.PollUntil(c.Nodes[0].Prof.SpinCheckInterval, 0, nil, func() bool {
				return counter(t, c.Eng, injected) > before
			})
			pl.CorruptNextOn(nic.ID, 1)
		})
		if !sendNotify(0, 2*mem.PageSize) {
			return
		}
		if got := nodeCounter(t, c.Nodes[1], "lcp_crc_errors"); got != 1 {
			t.Errorf("CRC errors at the receiver: %d, want 1 (the final chunk)", got)
			return
		}
		if len(*notes) != 1 {
			t.Errorf("a message whose final chunk was lost notified: %v", (*notes)[1:])
			return
		}

		if !sendNotify(2*mem.PageSize, 100) {
			return
		}
		if want := (note{2 * mem.PageSize, 100}); len(*notes) != 2 || (*notes)[1] != want {
			t.Errorf("notifications %v, want the next message's own extent %v second", *notes, want)
		}
	})
}

// TestLostFirstChunkKeepsTrueStart: when the first chunk of a two-chunk
// notifying message dies on the wire, the last chunk still names the
// message's start and whole length — the notification reports the extent
// the sender deposited, as §2 has it, and the CRC counter reports the
// loss. A receiver that accumulated from the first chunk it saw reported
// {4096, 4096}.
func TestLostFirstChunkKeepsTrueStart(t *testing.T) {
	lossyNotifyRig(t, func(p *simProc, c *Cluster, pl *fault.Plan, notes *[]note, sendNotify func(off, n int) bool) {
		pl.CorruptNextOn(c.Nodes[0].Board.NIC.ID, 1)
		if !sendNotify(0, 2*mem.PageSize) {
			return
		}
		if got := nodeCounter(t, c.Nodes[1], "lcp_crc_errors"); got != 1 {
			t.Errorf("CRC errors at the receiver: %d, want 1 (the first chunk)", got)
			return
		}
		if want := (note{0, 2 * mem.PageSize}); len(*notes) != 1 || (*notes)[0] != want {
			t.Errorf("notifications %v, want [%v]", *notes, want)
		}
	})
}

// A handler never blocks, so it cannot send the reply itself: it records
// the request and wakes a server process, which does the SendMsgSync. The
// classic transfer of control, with the reply on the server's own thread.
func TestHandlerCanSendReply(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		server, _ := c.Nodes[1].NewProcess(p)
		client, _ := c.Nodes[0].NewProcess(p)

		reqBuf, _ := server.Malloc(mem.PageSize)
		repBuf, _ := client.Malloc(mem.PageSize)
		if err := server.Export(p, 1, reqBuf, mem.PageSize, nil, true); err != nil {
			t.Fatal(err)
		}
		if err := client.Export(p, 2, repBuf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		toClient, _, err := server.Import(p, 0, 2)
		if err != nil {
			t.Fatal(err)
		}

		var reqs []note
		arrived := sim.NewCond(c.Eng)
		server.RegisterHandler(1, func(from ProcID, tag uint32, offset, length int) {
			if from != client.ID() {
				t.Errorf("request from %+v, want %+v", from, client.ID())
			}
			reqs = append(reqs, note{offset, length})
			arrived.Signal()
		})
		srvSrc, _ := server.Malloc(mem.PageSize)
		c.Eng.Go("server", func(sp *simProc) {
			for len(reqs) == 0 {
				arrived.Wait(sp)
			}
			req, _ := server.Read(reqBuf+mem.VirtAddr(reqs[0].offset), reqs[0].length)
			reply := append([]byte("re:"), req...)
			if err := server.Write(srvSrc, reply); err != nil {
				t.Error(err)
				return
			}
			if err := server.SendMsgSync(sp, srvSrc, toClient, len(reply), SendOptions{}); err != nil {
				t.Error(err)
			}
		})

		toServer, _, err := client.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		cliSrc, _ := client.Malloc(mem.PageSize)
		if err := client.Write(cliSrc, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		if err := client.SendMsgSync(p, cliSrc, toServer, 4, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		client.SpinByte(p, repBuf, 'r')
		got, _ := client.Read(repBuf, 7)
		if string(got) != "re:ping" {
			t.Errorf("reply = %q", got)
		}
		if len(reqs) != 1 {
			t.Errorf("%d requests reached the handler, want 1", len(reqs))
		}
	})
}

// A striped read: the client's notifying requests reach three servers,
// whose handlers queue each request for a server process that long-sends
// the two-page block straight to its offset in one buffer the client
// exported. Data from several nodes scatters into one buffer with no copy
// and no receive call; the client watches only the last byte of each
// block.
func TestHandlersScatterIntoOneBuffer(t *testing.T) {
	const servers, block, blocks = 3, 2 * mem.PageSize, 6
	pattern := func(b, j int) byte { return byte(b*31 + j) }
	testCluster(t, servers+1, func(p *simProc, c *Cluster) {
		client, _ := c.Nodes[servers].NewProcess(p)
		file, _ := client.Malloc(blocks * block)
		if err := client.Export(p, 2, file, blocks*block, nil, false); err != nil {
			t.Error(err)
			return
		}
		toReq := make([]ProxyAddr, servers)
		for i := range toReq {
			srv, _ := c.Nodes[i].NewProcess(p)
			store, _ := srv.Malloc(blocks * block)
			for b := i; b < blocks; b += servers {
				data := make([]byte, block)
				for j := range data {
					data[j] = pattern(b, j)
				}
				if err := srv.Write(store+mem.VirtAddr(b*block), data); err != nil {
					t.Error(err)
					return
				}
			}
			reqs, _ := srv.Malloc(mem.PageSize)
			if err := srv.Export(p, 1, reqs, mem.PageSize, nil, true); err != nil {
				t.Error(err)
				return
			}
			toFile, _, err := srv.Import(p, servers, 2)
			if err != nil {
				t.Error(err)
				return
			}
			// The handler reads the request byte as it arrives and queues
			// the block; the server process sends the blocks in order.
			var queue []int
			arrived := sim.NewCond(c.Eng)
			srv.RegisterHandler(1, func(from ProcID, tag uint32, offset, length int) {
				req, _ := srv.Read(reqs+mem.VirtAddr(offset), 1)
				queue = append(queue, int(req[0]))
				arrived.Signal()
			})
			mine := (blocks - i + servers - 1) / servers
			c.Eng.Go(fmt.Sprintf("server%d", i), func(sp *simProc) {
				for sent := 0; sent < mine; sent++ {
					for len(queue) == 0 {
						arrived.Wait(sp)
					}
					b := queue[0]
					queue = queue[1:]
					if err := srv.SendMsgSync(sp, store+mem.VirtAddr(b*block), toFile+ProxyAddr(b*block), block, SendOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			})
			if toReq[i], _, err = client.Import(p, i, 1); err != nil {
				t.Error(err)
				return
			}
		}
		src, _ := client.Malloc(mem.PageSize)
		for b := 0; b < blocks; b++ {
			// One request byte per block, so no request overwrites one
			// whose handler has not read it yet.
			if err := client.Write(src, []byte{byte(b)}); err != nil {
				t.Error(err)
				return
			}
			if err := client.SendMsgSync(p, src, toReq[b%servers]+ProxyAddr(b), 1, SendOptions{Notify: true}); err != nil {
				t.Error(err)
				return
			}
		}
		for b := 0; b < blocks; b++ {
			client.SpinByte(p, file+mem.VirtAddr((b+1)*block-1), pattern(b, block-1))
		}
		got, _ := client.Read(file, blocks*block)
		for i, v := range got {
			if b, j := i/block, i%block; v != pattern(b, j) {
				t.Errorf("block %d byte %d = %d, want %d", b, j, v, pattern(b, j))
				return
			}
		}
	})
}

// TestReexportAfterKillNotifiesOwnExtent pins that nothing of a message
// cut off by its receiver's death reaches the tag's next export. On the
// reliable link a receiver is killed while an 8-page notifying message is
// half delivered; a new process on the same node then exports the same
// tag and the same sender notifies it with 64 bytes at offset 3 pages.
// The handler must be told that message's extent, not the dead one's base
// plus both messages' bytes (0 and 4 160, which a receiver-side
// accumulator that outlived its export reported).
func TestReexportAfterKillNotifiesOwnExtent(t *testing.T) {
	const size = 8 * mem.PageSize
	reliableCluster(t, func(p *simProc, c *Cluster) {
		node := c.Nodes[1]
		send, _ := c.Nodes[0].NewProcess(p)
		src, _ := send.Malloc(size)
		export := func() (*Process, ProxyAddr) {
			recv, _ := node.NewProcess(p)
			buf, _ := recv.Malloc(size)
			if err := recv.Export(p, 9, buf, size, nil, true); err != nil {
				t.Fatal(err)
			}
			dest, _, err := send.Import(p, node.ID, 9)
			if err != nil {
				t.Fatal(err)
			}
			return recv, dest
		}

		victim, dest := export()
		seq, err := send.SendMsg(p, src, dest, size, SendOptions{Notify: true})
		if err != nil {
			t.Fatal(err)
		}
		for nodeCounter(t, node, "lcp_bytes_in") == 0 {
			p.Sleep(sim.Micros(1))
		}
		node.KillProcess(victim.Pid)
		if err := send.WaitSend(p, seq); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)

		recv, dest := export()
		offset, length := -1, -1
		recv.RegisterHandler(9, func(_ ProcID, _ uint32, off, n int) {
			offset, length = off, n
		})
		if err := send.SendMsgSync(p, src, dest+3*mem.PageSize, 64, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if offset != 3*mem.PageSize || length != 64 {
			t.Errorf("handler told offset %d, length %d; want %d, 64", offset, length, 3*mem.PageSize)
		}
	})
}

// A signal on its way to a process that dies is dropped, as a signal to a
// dead pid is. The driver finds the owner InterruptCost after the
// interrupt and the handler runs SignalCost later; a kill or a crash in
// between used to run the handler anyway. Each case times its disturbance
// against the undisturbed run's handler, 5 and 20 µs ahead of it.
func TestNotificationDroppedForProcessDeadBeforeSignal(t *testing.T) {
	// run sends one notifying message and, unless disturb is nil, calls it
	// at virtual time at. It reports when the handler ran, or -1.
	run := func(t *testing.T, at sim.Time, disturb func(c *Cluster, recv *Process)) sim.Time {
		fired := sim.Time(-1)
		testCluster(t, 2, func(p *simProc, c *Cluster) {
			recv, _ := c.Nodes[1].NewProcess(p)
			send, _ := c.Nodes[0].NewProcess(p)
			buf, _ := recv.Malloc(mem.PageSize)
			if err := recv.Export(p, 9, buf, mem.PageSize, nil, true); err != nil {
				t.Fatal(err)
			}
			recv.RegisterHandler(9, func(_ ProcID, _ uint32, _, _ int) { fired = c.Eng.Now() })
			dest, _, err := send.Import(p, 1, 9)
			if err != nil {
				t.Fatal(err)
			}
			src, _ := send.Malloc(mem.PageSize)
			if disturb != nil {
				c.Eng.At(at, func() { disturb(c, recv) })
			}
			if err := send.SendMsgSync(p, src, dest, 4, SendOptions{Notify: true}); err != nil {
				t.Fatal(err)
			}
			p.Sleep(sim.Millisecond)
		})
		return fired
	}
	base := run(t, 0, nil)
	if base < 0 {
		t.Fatal("the undisturbed handler never ran")
	}
	signal := hw.Default().SignalCost
	for _, tc := range []struct {
		name    string
		disturb func(c *Cluster, recv *Process)
	}{
		{"kill", func(c *Cluster, recv *Process) { recv.Node.KillProcess(recv.Pid) }},
		{"crash", func(c *Cluster, recv *Process) { c.CrashNode(recv.Node.ID) }},
	} {
		for _, ahead := range []sim.Time{signal / 5, signal * 4 / 5} {
			t.Run(fmt.Sprintf("%s/%v_ahead", tc.name, ahead), func(t *testing.T) {
				if got := run(t, base-ahead, tc.disturb); got >= 0 {
					t.Errorf("handler ran at %v for a process that died at %v", got, base-ahead)
				}
			})
		}
	}
}

// irqSink records when a board raised each notification interrupt.
type irqSink struct {
	comp string
	at   []sim.Time
}

func (s *irqSink) Consume(ev trace.Event) {
	if ev.Ph == trace.PhaseInstant && ev.Component == s.comp && ev.Name == "vmmc.notifyIRQ" {
		s.at = append(s.at, sim.Time(ev.T))
	}
}

// Two notifying sends 1 µs apart reach one process while the first
// signal is still on its way. Like signal handlers, the two handlers run
// one after the other, in arrival order, and each runs InterruptCost +
// SignalCost after its own interrupt: the second neither waits for the
// first nor overtakes it.
func TestHandlersRunInArrivalOrder(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 9, buf, mem.PageSize, nil, true); err != nil {
			t.Error(err)
			return
		}
		var notes []note
		var fired []sim.Time
		recv.RegisterHandler(9, func(_ ProcID, _ uint32, off, n int) {
			notes = append(notes, note{off, n})
			fired = append(fired, c.Eng.Now())
		})
		dest, _, err := send.Import(p, 1, 9)
		if err != nil {
			t.Error(err)
			return
		}
		src, _ := send.Malloc(mem.PageSize)
		irqs := &irqSink{comp: fmt.Sprintf("lanai%d", c.Nodes[1].Board.NIC.ID)}
		c.Eng.Trace().Subscribe(irqs)
		defer c.Eng.Trace().Unsubscribe(irqs)
		for i, m := range []note{{0, 4}, {64, 8}} {
			if i > 0 {
				p.Sleep(sim.Microsecond)
			}
			if _, err := send.SendMsg(p, src, dest+ProxyAddr(m.offset), m.length, SendOptions{Notify: true}); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(sim.Millisecond)

		if want := []note{{0, 4}, {64, 8}}; fmt.Sprint(notes) != fmt.Sprint(want) {
			t.Errorf("handlers saw %v, want %v", notes, want)
		}
		if len(irqs.at) != 2 || len(fired) != 2 {
			t.Errorf("%d interrupts and %d handlers, want 2 and 2", len(irqs.at), len(fired))
			return
		}
		if irqs.at[1] >= fired[0] {
			t.Errorf("second interrupt at %v, after the first handler ran at %v: the signals never overlapped", irqs.at[1], fired[0])
		}
		prof := c.Nodes[1].Prof
		for i := range fired {
			if want := irqs.at[i] + prof.InterruptCost + prof.SignalCost; fired[i] != want {
				t.Errorf("handler %d ran at %v, want %v (interrupt at %v)", i, fired[i], want, irqs.at[i])
			}
		}
	})
}
