package bench

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// Ablations of the design choices the paper credits for its performance
// (§4.5, §5.3): each flips one knob in the hardware/LCP profile and reruns
// the same benchmark.

// AblationPipeline measures peak one-way bandwidth with and without the
// two long-send optimizations: overlapping the host DMA of the next chunk
// with injection of the current one, and precomputing headers during the
// DMA (§4.5 credits these plus the tight loop for the 98% efficiency).
func (rn *Run) AblationPipeline() (Table, error) {
	t := Table{
		Title:   "Ablation: long-send pipelining (§4.5)",
		Columns: []string{"configuration", "peak one-way bandwidth"},
	}
	cases := []struct {
		name              string
		pipeline, precomp bool
	}{
		{"pipelined + precomputed headers (paper)", true, true},
		{"pipelined, headers on critical path", true, false},
		{"no overlap at all", false, false},
	}
	for _, c := range cases {
		prof := hw.Default()
		prof.PipelineChunks = c.pipeline
		prof.PrecomputeHeaders = c.precomp
		var bw float64
		err := rn.RunPair(vmmc.Options{Prof: &prof}, 1<<20, func(p *sim.Proc, pr *Pair) error {
			v, err := pr.OneWayBandwidth(p, 1<<20, 12)
			bw = v
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{c.name, fmt.Sprintf("%.1f MB/s", bw)})
	}
	return t, nil
}

// AblationTightLoop measures the bidirectional total bandwidth with and
// without the tight sending loop (§5.3: bidirectional traffic forces the
// main loop and drops total bandwidth from ~2x80 to 91 MB/s).
func (rn *Run) AblationTightLoop() (Table, error) {
	t := Table{
		Title:   "Ablation: tight sending loop (§5.3)",
		Columns: []string{"configuration", "one-way", "bidirectional total"},
	}
	for _, tight := range []bool{true, false} {
		prof := hw.Default()
		prof.TightSendLoop = tight
		var ow, bd float64
		err := rn.RunPair(vmmc.Options{Prof: &prof}, 1<<20, func(p *sim.Proc, pr *Pair) error {
			v, err := pr.OneWayBandwidth(p, 1<<20, 12)
			if err != nil {
				return err
			}
			ow = v
			v, err = pr.BidirectionalBandwidth(p, 1<<20, 8)
			bd = v
			return err
		})
		if err != nil {
			return t, err
		}
		name := "tight loop enabled (paper)"
		if !tight {
			name = "main loop always"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.1f MB/s", ow), fmt.Sprintf("%.1f MB/s", bd)})
	}
	return t, nil
}

// AblationThreshold measures synchronous send overhead around the
// short/long protocol threshold for several threshold choices (§5.3: 64
// would dramatically increase sync overhead for 64-128 byte messages;
// above 128 the SRAM budget forbids).
func (rn *Run) AblationThreshold() (Table, error) {
	t := Table{
		Title:   "Ablation: short/long protocol threshold (§5.3)",
		Columns: []string{"threshold", "sync overhead 64 B", "sync overhead 128 B", "latency 128 B"},
	}
	for _, thr := range []int{64, 128} {
		prof := hw.Default()
		prof.ShortSendMax = thr
		var o64, o128, l128 float64
		err := rn.RunPair(vmmc.Options{Prof: &prof}, 8192, func(p *sim.Proc, pr *Pair) error {
			v, err := pr.SendOverhead(p, 64, 30, true)
			if err != nil {
				return err
			}
			o64 = v
			v, err = pr.SendOverhead(p, 128, 30, true)
			if err != nil {
				return err
			}
			o128 = v
			v, err = pr.PingPongLatency(p, 128, 30)
			l128 = v
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d bytes", thr),
			fmt.Sprintf("%.1f us", o64),
			fmt.Sprintf("%.1f us", o128),
			fmt.Sprintf("%.1f us", l128),
		})
	}
	return t, nil
}

// AblationTLB measures the cost of the warm-TLB assumption (§5.3): the
// same long send with a hot software TLB versus first-touch (refill
// interrupts on the critical path).
func (rn *Run) AblationTLB() (Table, error) {
	t := Table{
		Title:   "Ablation: software TLB warmth (§5.3 assumes warm)",
		Columns: []string{"send", "duration", "refill interrupts"},
	}
	const size = 64 * 4096 // 64 pages = 2 refill batches
	err := rn.RunPair(vmmc.Options{}, size, func(p *sim.Proc, pr *Pair) error {
		node := pr.C.Nodes[0]
		// The Pair warmup already touched every page once; use a fresh
		// buffer for the cold case.
		cold, err := pr.A.Malloc(size)
		if err != nil {
			return err
		}
		refills := fmt.Sprintf("node%d/tlb_refills", node.ID)
		before := counterNow(node.Eng, refills)
		start := p.Now()
		if err := pr.A.SendMsgSync(p, cold, pr.ToB, size, vmmc.SendOptions{}); err != nil {
			return err
		}
		coldTime := p.Now() - start
		after := counterNow(node.Eng, refills)

		start = p.Now()
		if err := pr.A.SendMsgSync(p, cold, pr.ToB, size, vmmc.SendOptions{}); err != nil {
			return err
		}
		warmTime := p.Now() - start
		final := counterNow(node.Eng, refills)

		t.Rows = [][]string{
			{"cold TLB (first touch)", fmt.Sprintf("%.0f us", coldTime.Micros()), fmt.Sprintf("%d", after-before)},
			{"warm TLB (paper's benchmarks)", fmt.Sprintf("%.0f us", warmTime.Micros()), fmt.Sprintf("%d", final-after)},
		}
		return nil
	})
	return t, err
}

// AblationReliability quantifies §4.2's decision not to recover from CRC
// errors: the optional VMMC-2-style data-link reliability layer recovers
// injected faults but costs latency and LANai work even on clean networks.
func (rn *Run) AblationReliability() (Table, error) {
	t := Table{
		Title:   "Ablation: data-link reliability (§4.2 declined; VMMC-2 future work)",
		Columns: []string{"configuration", "one-word latency", "peak bandwidth"},
	}
	for _, reliable := range []bool{false, true} {
		var lat, bw float64
		// 16 MB nodes: the retransmit window shares the 256 KB SRAM with
		// the incoming page table, whose size scales with host memory.
		err := rn.RunPair(vmmc.Options{MemBytes: 16 << 20, Reliable: reliable}, 1<<20, func(p *sim.Proc, pr *Pair) (err error) {
			if lat, err = pr.PingPongLatency(p, 4, 50); err != nil {
				return err
			}
			bw, err = pr.OneWayBandwidth(p, 1<<20, 10)
			return err
		})
		if err != nil {
			return t, err
		}
		name := "CRC errors dropped (paper, §4.2)"
		if reliable {
			name = "go-back-N reliability enabled"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.2f us", lat), fmt.Sprintf("%.1f MB/s", bw)})
	}
	return t, nil
}

// ExtensionsTable measures the follow-on features this repo implements
// beyond the paper's evaluation (see EXPERIMENTS.md "Extensions"): the
// numbers quantify claims the paper makes but could not measure.
func (rn *Run) ExtensionsTable() (Table, error) {
	t := Table{
		Title:   "Extensions (VMMC-2 features & §5.4's compatibility-free RPC)",
		Columns: []string{"feature", "measurement", "interpretation"},
	}

	// Transfer redirection: posting cost vs the copy it replaces.
	var postUs, copyUs float64
	_, err := rn.newCell("redirection").cluster(vmmc.Options{Nodes: 2, MemBytes: 64 << 20}, "redirect", func(p *sim.Proc, c *vmmc.Cluster) error {
		recv, err := c.Nodes[1].NewProcess(p)
		if err != nil {
			return err
		}
		send, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			return err
		}
		const n = 8 * 4096
		buf, _ := recv.Malloc(n)
		if err := recv.Export(p, 1, buf, n, nil, false); err != nil {
			return err
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			return err
		}
		user, _ := recv.Malloc(n)
		start := p.Now()
		if _, err := recv.PostRedirect(p, 1, user, n); err != nil {
			return err
		}
		postUs = (p.Now() - start).Micros()
		src, _ := send.Malloc(n)
		if err := send.SendMsgSync(p, src, dest, n, vmmc.SendOptions{}); err != nil {
			return err
		}
		if _, err := recv.CompleteRedirect(p, 1); err != nil {
			return err
		}
		start = p.Now()
		recv.Node.CPU.Bcopy(p, n)
		copyUs = (p.Now() - start).Micros()
		return nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"transfer redirection (VMMC-2)",
		fmt.Sprintf("post %.1f us vs %.1f us copy of 32 KB", postUs, copyUs),
		"removes the default-buffer copy a late receiver pays",
	})

	// Reliability cost (clean network).
	rel, err := rn.AblationReliability()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"data-link reliability (VMMC-2)",
		fmt.Sprintf("%s -> %s one-word latency", rel.Rows[0][1], rel.Rows[1][1]),
		"the overhead §4.2 declined to pay at 1e-15 error rates",
	})

	// Compatibility-free RPC against the SunRPC-compatible vRPC.
	compatRTT, compatBW, err := rn.vrpcMyrinet("vrpc on myrinet", false)
	if err != nil {
		return t, err
	}
	zeroRTT, zeroBW, err := rn.vrpcMyrinet("zero-copy vrpc on myrinet", true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"compatibility-free RPC (§5.4)",
		fmt.Sprintf("%.1f -> %.1f MB/s, %.1f -> %.1f us null RTT", compatBW, zeroBW, compatRTT, zeroRTT),
		"what SunRPC compatibility's receive copy costs",
	})
	return t, nil
}

// AblationSenders measures how the request pickup cost grows with the
// number of registered processes on the sending interface (§6: "picking
// up a send request in Myrinet requires scanning send queues of all
// possible senders", unlike SHRIMP's hardware dispatch).
func (rn *Run) AblationSenders() (Table, error) {
	t := Table{
		Title:   "Ablation: queue scanning vs registered senders (§6)",
		Columns: []string{"processes on sender NIC", "one-word latency"},
	}
	for _, extra := range []int{0, 2, 4} {
		extra := extra
		var lat float64
		err := rn.RunPair(vmmc.Options{}, 4096, func(p *sim.Proc, pr *Pair) error {
			// Register idle processes; their empty queues still get
			// scanned by the LCP on every pickup.
			for i := 0; i < extra; i++ {
				if _, err := pr.C.Nodes[0].NewProcess(p); err != nil {
					return err
				}
			}
			v, err := pr.PingPongLatency(p, 4, 50)
			lat = v
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", extra+1), fmt.Sprintf("%.2f us", lat)})
	}
	return t, nil
}
