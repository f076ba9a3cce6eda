package vmmc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// counter reads a registered counter off eng's metrics registry, the one
// store of every count; a name nothing registered fails the test. It may be
// called from a simulation process.
func counter(t testing.TB, eng *sim.Engine, name string) int64 {
	t.Helper()
	v, ok := eng.MetricsSnapshot().Counter(name)
	if !ok {
		t.Errorf("no counter %q", name)
	}
	return v
}

// nodeCounter reads the node's "node<id>/<metric>" counter: the LCP's,
// the driver's and the daemon's.
func nodeCounter(t testing.TB, n *Node, metric string) int64 {
	t.Helper()
	return counter(t, n.Eng, fmt.Sprintf("node%d/%s", n.ID, metric))
}

// boardCounter reads the node's "lanai<id>/<metric>" counter: the board's
// and its link layer's (rl_*).
func boardCounter(t testing.TB, n *Node, metric string) int64 {
	t.Helper()
	return counter(t, n.Eng, fmt.Sprintf("lanai%d/%s", n.Board.NIC.ID, metric))
}

// A node's counters belong to the engine's registry, not to the software
// that increments them: a restarted node's fresh LCP takes over the dead
// one's counters and counts on, so across RestartNode they are cumulative
// and what the fresh LCP saw is the difference.
func TestNodeCountersSurviveRestart(t *testing.T) {
	reliableCluster(t, func(p *simProc, c *Cluster) {
		node := c.Nodes[1]
		send, _ := c.Nodes[0].NewProcess(p)
		src, _ := send.Malloc(mem.PageSize)
		// deliver sends one page into a fresh export on node 1 and waits
		// for it to land; false means it could not.
		deliver := func(tag uint32, fill byte) bool {
			recv, err := node.NewProcess(p)
			if err != nil {
				t.Error(err)
				return false
			}
			buf, _ := recv.Malloc(mem.PageSize)
			if err := recv.Export(p, tag, buf, mem.PageSize, nil, false); err != nil {
				t.Error(err)
				return false
			}
			dest, _, err := send.Import(p, node.ID, tag)
			if err == nil {
				err = send.Write(src, bytes.Repeat([]byte{fill}, mem.PageSize))
			}
			if err == nil {
				err = send.SendMsgSync(p, src, dest, mem.PageSize, SendOptions{})
			}
			if err != nil {
				t.Error(err)
				return false
			}
			recv.SpinByte(p, buf+mem.PageSize-1, fill)
			return true
		}
		counts := func() (in, delivered, acks int64) {
			return nodeCounter(t, node, "lcp_packets_in"), boardCounter(t, node, "rl_deliveries"),
				boardCounter(t, node, "rl_acks_sent")
		}

		if !deliver(1, 0x11) {
			return
		}
		in, delivered, acks := counts()
		if in != 1 || delivered != 1 {
			t.Errorf("before the crash: %d packets in, %d link deliveries, want 1 and 1", in, delivered)
		}
		old := node.LCP
		c.CrashNode(node.ID)
		if err := c.RestartNode(node.ID); err != nil {
			t.Error(err)
			return
		}
		if node.LCP == old || node.LCP.m.packetsIn != old.m.packetsIn {
			t.Error("the restarted node's LCP does not count into the dead one's counter")
		}
		if in2, delivered2, acks2 := counts(); in2 != in || delivered2 != delivered || acks2 != acks {
			t.Errorf("restart moved the counters: %d/%d/%d packets in, deliveries, acks, want %d/%d/%d",
				in2, delivered2, acks2, in, delivered, acks)
		}

		if !deliver(2, 0x22) {
			return
		}
		in2, delivered2, _ := counts()
		if in2-in != 1 || delivered2-delivered != 1 {
			t.Errorf("the fresh LCP's traffic: %d packets in, %d link deliveries, want 1 and 1",
				in2-in, delivered2-delivered)
		}
	})
}
