package vmmc

import "fmt"

// ClusterStats is a point-in-time copy of the counters the benchmark
// module reports per node. Every count lives in the engine's metrics
// registry; this is one read of it, under the names each field notes.
type ClusterStats struct {
	Nodes          []NodeStats
	PacketsDropped int64 // net/packets_dropped
}

// NodeStats is one node's counters.
type NodeStats struct {
	LCP               LCPStats
	HostDMATransfers  int64 // dma:lanai<id>:host/transfers
	Interrupts        int64 // lanai<id>/interrupts
	ReliabilityRetx   int64 // lanai<id>/rl_retransmits
	ReliabilityStalls int64 // lanai<id>/rl_window_stalls
	Notifications     int64 // node<id>/notifications_delivered
}

// LCPStats is the control program's share of a node's counters.
type LCPStats struct {
	PacketsOut         int64 // node<id>/lcp_packets_out
	MainLoopIterations int64 // node<id>/lcp_main_loop_iterations
	SendsShort         int64 // node<id>/lcp_sends_short
	SendsLong          int64 // node<id>/lcp_sends_long
	TLBMissStalls      int64 // node<id>/tlb_miss_stalls
}

// Stats reads every node's counters from one metrics snapshot. A counter
// nothing registered — the link layer's on a cluster without it, the
// LCP's before boot — reads zero.
func (c *Cluster) Stats() ClusterStats {
	snap := c.Eng.MetricsSnapshot()
	count := func(format string, id int) int64 {
		v, _ := snap.Counter(fmt.Sprintf(format, id))
		return v
	}
	out := ClusterStats{}
	out.PacketsDropped, _ = snap.Counter("net/packets_dropped")
	for _, n := range c.Nodes {
		nic := n.Board.NIC.ID
		out.Nodes = append(out.Nodes, NodeStats{
			LCP: LCPStats{
				PacketsOut:         count("node%d/lcp_packets_out", n.ID),
				MainLoopIterations: count("node%d/lcp_main_loop_iterations", n.ID),
				SendsShort:         count("node%d/lcp_sends_short", n.ID),
				SendsLong:          count("node%d/lcp_sends_long", n.ID),
				TLBMissStalls:      count("node%d/tlb_miss_stalls", n.ID),
			},
			HostDMATransfers:  count("dma:lanai%d:host/transfers", nic),
			Interrupts:        count("lanai%d/interrupts", nic),
			ReliabilityRetx:   count("lanai%d/rl_retransmits", nic),
			ReliabilityStalls: count("lanai%d/rl_window_stalls", nic),
			Notifications:     count("node%d/notifications_delivered", n.ID),
		})
	}
	return out
}
