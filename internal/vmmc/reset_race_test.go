package vmmc

import (
	"testing"

	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ResetPeer racing the delayed acknowledgement. A peer restart
// announcement can land while the receiver's delayed ack for the old
// conversation is still armed, or while that ack is already in flight
// toward a sender that just dropped the window. Neither late arrival may
// corrupt the fresh conversation that follows at sequence zero.

// resetRaceCluster boots a two-node reliable cluster with a long AckDelay
// so the test can act inside the armed-ack window deterministically. The
// delay stays under the 200µs initial retransmit timeout — otherwise every
// straggler would retransmit before its ack and muddy the race being
// pinned here.
func resetRaceCluster(t *testing.T, fn func(p *simProc, c *Cluster)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	cfg := lanai.DefaultReliability()
	cfg.AckDelay = 150 * sim.Microsecond
	c, err := NewCluster(eng, Options{Nodes: 2, Reliable: true, Reliability: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.VerifyIntact()
	c.Go("workload", func(p *simProc) { fn(p, c) })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
}

// sendShort moves one short message 0->1 and waits for delivery; seq 0 is
// skipped by the every-4th-packet ack cadence, so on return the receiver's delayed
// ack is armed and no ack has been sent yet.
func sendShort(t *testing.T, p *simProc, c *Cluster, send, recv *Process, dest ProxyAddr, buf mem.VirtAddr, val byte) {
	t.Helper()
	src, _ := send.Malloc(mem.PageSize)
	if err := send.Write(src, []byte{val}); err != nil {
		t.Fatal(err)
	}
	if err := send.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	recv.SpinByte(p, buf, val)
}

// TestResetPeerRacesInFlightAck drops the sender's window while the
// receiver's delayed ack is still pending: the ack fires into a window
// that no longer exists and must be ignored, and a fresh conversation
// restarting at sequence zero must deliver cleanly.
func TestResetPeerRacesInFlightAck(t *testing.T) {
	resetRaceCluster(t, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sendShort(t, p, c, send, recv, dest, buf, 0xA1)

		// The "restart announcement": inside the armed-ack window, the
		// sender drops its window toward node 1 and the receiver forgets
		// the old sequence state toward node 0 — the two sides of the
		// protocol RestartNode runs. The delayed ack is still pending.
		sl := c.Nodes[0].Board.Reliable()
		rl := c.Nodes[1].Board.Reliable()
		sl.ResetPeer(c.Nodes[1].Board.NIC.ID)
		// Let the delayed ack fire and cross the wire into the dropped
		// window: it must vanish without resurrecting any state.
		p.Sleep(2 * sim.Millisecond)
		if boardCounter(t, c.Nodes[1], "rl_acks_sent") == 0 {
			t.Error("armed delayed ack never fired after sender-side reset")
		}
		rl.ResetPeer(c.Nodes[0].Board.NIC.ID)

		// Fresh conversation from sequence zero: accepted, delivered,
		// and never mistaken for a duplicate of the old window.
		sendShort(t, p, c, send, recv, dest, buf, 0xB2)
		p.Sleep(2 * sim.Millisecond)
		if n := boardCounter(t, c.Nodes[0], "rl_retransmits"); n != 0 {
			t.Errorf("retransmits = %d, want 0 (late ack must not strand the fresh window)", n)
		}
		if n := boardCounter(t, c.Nodes[0], "rl_unreachable"); n != 0 {
			t.Errorf("unreachables = %d, want 0", n)
		}
		if n := boardCounter(t, c.Nodes[1], "rl_dup_drops"); n != 0 {
			t.Errorf("dup drops = %d, want 0 (fresh seq 0 mistaken for the old conversation)", n)
		}
	})
}

// TestResetPeerCancelsArmedDelayedAck resets the receiver before its
// delayed ack fires: the armed ack must be canceled outright (the peer it
// would acknowledge is gone), not fire into the void.
func TestResetPeerCancelsArmedDelayedAck(t *testing.T) {
	resetRaceCluster(t, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sendShort(t, p, c, send, recv, dest, buf, 0xC3)

		sl := c.Nodes[0].Board.Reliable()
		rl := c.Nodes[1].Board.Reliable()
		// Receiver-side reset inside the armed-ack window cancels the
		// pending ack; the sender-side reset drops the window whose
		// retransmit timer would otherwise wait for it forever.
		rl.ResetPeer(c.Nodes[0].Board.NIC.ID)
		sl.ResetPeer(c.Nodes[1].Board.NIC.ID)
		p.Sleep(2 * sim.Millisecond)
		if n := boardCounter(t, c.Nodes[1], "rl_acks_sent"); n != 0 {
			t.Errorf("acks sent = %d, want 0 (reset must cancel the armed delayed ack)", n)
		}
		if n := boardCounter(t, c.Nodes[0], "rl_retransmits"); n != 0 {
			t.Errorf("retransmits = %d, want 0 (reset must cancel the window timer)", n)
		}

		// The link still works from a clean slate.
		sendShort(t, p, c, send, recv, dest, buf, 0xD4)
		if n := boardCounter(t, c.Nodes[1], "rl_dup_drops"); n != 0 {
			t.Errorf("dup drops = %d, want 0", n)
		}
	})
}
