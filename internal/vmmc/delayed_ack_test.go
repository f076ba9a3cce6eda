package vmmc

import (
	"testing"

	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The delayed acknowledgement (ReliabilityConfig.AckDelay): without it, a
// lone in-sequence packet that the every-4th-packet ack rule skips is
// acknowledged only after the sender's RTO fires, the window is
// retransmitted, and the duplicate provokes a re-ack — one redundant retransmission and a full
// timeout of acknowledgement latency per straggler. With it, the receiver
// acks shortly after the packet lands and the sender's timer is canceled
// in time.

func delayedAckCluster(t *testing.T, ackDelay sim.Time, fn func(p *simProc, c *Cluster)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	cfg := lanai.DefaultReliability()
	cfg.AckDelay = ackDelay
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

// oneStraggler sends a single short message — one link packet, seq 0,
// which the every-4th-packet ack rule skips — and waits for delivery.
func oneStraggler(t *testing.T, p *simProc, c *Cluster) {
	t.Helper()
	recv, _ := c.Nodes[1].NewProcess(p)
	send, _ := c.Nodes[0].NewProcess(p)
	buf, _ := recv.Malloc(mem.PageSize)
	if err := recv.Export(p, 1, buf, mem.PageSize, nil, false); err != nil {
		t.Fatal(err)
	}
	dest, _, _ := send.Import(p, 1, 1)
	src, _ := send.Malloc(mem.PageSize)
	if err := send.Write(src, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if err := send.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	recv.SpinByte(p, buf, 0xAB)
	// Let any sender timers run their course before the stats check.
	p.Sleep(10 * sim.Millisecond)
}

func TestDelayedAckAvoidsStragglerRetransmit(t *testing.T) {
	delayedAckCluster(t, 25*sim.Microsecond, func(p *simProc, c *Cluster) {
		oneStraggler(t, p, c)
		if n := boardCounter(t, c.Nodes[0], "rl_retransmits"); n != 0 {
			t.Errorf("retransmits = %d with delayed ack, want 0", n)
		}
		if boardCounter(t, c.Nodes[1], "rl_acks_sent") == 0 {
			t.Error("no ack sent for the straggler")
		}
		if n := boardCounter(t, c.Nodes[1], "rl_dup_drops"); n != 0 {
			t.Errorf("dup drops = %d with delayed ack, want 0", n)
		}
	})
}

func TestZeroAckDelayKeepsTimeoutRecovery(t *testing.T) {
	// AckDelay=0 must preserve the original behavior byte for byte: the
	// straggler is recovered by timeout, retransmit, and duplicate
	// re-ack.
	delayedAckCluster(t, 0, func(p *simProc, c *Cluster) {
		oneStraggler(t, p, c)
		if boardCounter(t, c.Nodes[0], "rl_retransmits") == 0 {
			t.Error("no retransmit: zero AckDelay should leave stragglers to the timeout path")
		}
		if boardCounter(t, c.Nodes[1], "rl_dup_drops") == 0 {
			t.Error("no duplicate drop: the timeout path re-acks via the dup")
		}
	})
}

func TestDelayedAckBatchesUnderBursts(t *testing.T) {
	// A multi-packet burst must not degrade into per-packet acking: a
	// delay longer than the burst's inter-packet gap (~30 us of DMA and
	// wire time per page) coalesces packets under one pending ack, so
	// each group of 4 costs at most its cadence ack plus one delayed
	// ack. The burst also covers the tail-timeout pathology: with
	// cadence-only acking (AckDelay=0) the last window of a burst is
	// recovered by retransmission.
	delayedAckCluster(t, 100*sim.Microsecond, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 16 * mem.PageSize // 16 link packets
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, _ := send.Import(p, 1, 1)
		src, _ := send.Malloc(size)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i | 1)
		}
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, size, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		recv.SpinByte(p, buf+size-1, msg[size-1])
		p.Sleep(10 * sim.Millisecond)
		if n := boardCounter(t, c.Nodes[0], "rl_retransmits"); n != 0 {
			t.Errorf("retransmits = %d, want 0", n)
		}
		// 16 in-sequence packets, an ack every 4th → 4 cadence acks plus at
		// most one delayed ack per group of 4.
		if n := boardCounter(t, c.Nodes[1], "rl_acks_sent"); n > 8 {
			t.Errorf("acks sent = %d for 16 packets, want batched (<= 8)", n)
		}
	})
}
