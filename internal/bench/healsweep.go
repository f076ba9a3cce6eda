package bench

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// healSweepSeed fixes the fault plan's RNG; the sweep injects only
// scheduled outages (no random corruption), but the seed keeps the plan's
// bookkeeping deterministic too.
const healSweepSeed = 0x4EA1

// HealSweepConfig parameterizes the healsweep experiment.
type HealSweepConfig struct {
	// Outages lists the link-outage durations swept (each one cell).
	// Empty selects the default 2ms -> 6ms -> 12ms ladder.
	Outages []sim.Time
	// Msgs is the page-sized message count per cell. Zero selects 32.
	Msgs int
}

// HealResult is one cell of the sweep. All fields are deterministic
// (virtual-time or event-count quantities), so two runs produce
// byte-identical BENCH_heal.json files.
type HealResult struct {
	Case           string   `key:"case,%q" col:"case,%s"`
	OutageUS       float64  `key:"outage_us,%.0f" col:"outage,%.0f us"`
	Messages       int      `key:"messages,%d" col:"delivered"` // delivered byte-exact
	Sent           int      // messages sent
	VirtualElapsed sim.Time `key:"virtual_elapsed_us,%.3f" col:"stream time,%.1f us,after=goodput"`
	GoodputMBps    float64  `key:"goodput_mb_s,%.2f" col:"goodput,%.1f MB/s"`
	Stalls         int64    `key:"stalls,%d" col:"stalls,%d"`
	Remaps         int64    `key:"remaps,%d" col:"remaps,%d"`
	RouteSwaps     int64    `key:"route_swaps,%d" col:"route swaps,%d"`
	Healed         int64    `key:"healed,%d" col:"healed,%d"`
	Abandoned      int64    `key:"abandoned,%d"`
	Retransmits    int64    `key:"retransmits,%d" col:"retransmits,%d"`
	SendFailures   int64    `key:"send_failures,%d"`
}

// computed renders the delivered column as delivered/sent.
func (r HealResult) computed() string { return fmt.Sprintf("%d/%d", r.Messages, r.Sent) }

// DiamondFabric wires the redundant sweep fabric: two edge switches, each
// hosting half the nodes, cross-connected through two spine switches, so
// every edge-to-edge path has a one-trunk detour and a spine death is
// survivable.
//
//	edge0 (sw0) --6-- spineA (sw2) --6-- edge1 (sw1)
//	      \--7-- spineB (sw3) --7--/
func DiamondFabric(net *myrinet.Network, nodes int) error {
	edge0 := net.AddSwitch(8)  // switch 0
	edge1 := net.AddSwitch(8)  // switch 1
	spineA := net.AddSwitch(8) // switch 2
	spineB := net.AddSwitch(8) // switch 3
	if err := net.ConnectSwitches(edge0, 6, spineA, 0); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge0, 7, spineB, 0); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge1, 6, spineA, 1); err != nil {
		return err
	}
	if err := net.ConnectSwitches(edge1, 7, spineB, 1); err != nil {
		return err
	}
	for i := 0; i < nodes; i++ {
		sw, port := edge0, i
		if i >= nodes/2 {
			sw, port = edge1, i-nodes/2
		}
		if err := net.AttachNIC(net.AddNIC(), sw, port); err != nil {
			return err
		}
	}
	return nil
}

// HealSweep measures transfer goodput across fabric outages with the
// self-healing layer on: a clean baseline, link outages of growing
// duration (the stream stalls, suspends, and resumes once the link
// returns), and a permanent spine-switch death on the redundant fabric
// (the remap discovers the detour through the surviving spine and
// hot-swaps it into the stalled windows). Every cell must deliver every
// message byte-exact with zero application-visible errors — the paper's
// static tables would surface ErrNodeUnreachable instead.
func (rn *Run) HealSweep(cfg HealSweepConfig) (Table, error) {
	if len(cfg.Outages) == 0 {
		cfg.Outages = []sim.Time{2 * sim.Millisecond, 6 * sim.Millisecond, 12 * sim.Millisecond}
	}
	if cfg.Msgs == 0 {
		cfg.Msgs = 32
	}

	t := Table{
		Title:   "Heal sweep: goodput vs fabric outage, self-healing on (diamond fabric)",
		Columns: columns(HealResult{}),
	}

	type cell struct {
		name   string
		outage sim.Time // link-outage duration; 0 = none
		spine  bool     // permanent spine-switch death instead
	}
	cells := []cell{{name: "no outage"}}
	for _, d := range cfg.Outages {
		cells = append(cells, cell{name: "link outage", outage: d})
	}
	cells = append(cells, cell{name: "spine failover", spine: true})

	log := sweepLog[HealResult]{sweep: "healsweep", note: true, t: &t}
	for _, cl := range cells {
		label := cl.name
		if cl.outage > 0 {
			label = fmt.Sprintf("%s %.0f us", cl.name, cl.outage.Micros())
		}
		if err := log.record(label, func() (HealResult, *analysis.Report, error) {
			return rn.runHealCase(cl.name, cl.outage, cl.spine, cfg.Msgs)
		}); err != nil {
			return t, err
		}
	}
	return t, log.write(rn.OutDir, artifact{
		header: [][2]string{
			{"fabric", `"diamond-2edge-2spine"`},
			{"msgs", fmt.Sprint(cfg.Msgs)},
			{"msg_bytes", fmt.Sprint(mem.PageSize)},
		},
		listKey: "cases",
	})
}

// healing returns the options of the sweeps' self-healing cells: nodes
// hosts on the diamond fabric with pl's faults, go-back-N reliability on a
// retransmit budget of retries, and the healing layer on.
func healing(nodes int, pl *fault.Plan, retries int) vmmc.Options {
	// Stall fast: a small retransmit budget moves the virtual time from
	// doomed retransmissions into the heal path under test.
	relCfg := lanai.DefaultReliability()
	relCfg.MaxRetries = retries
	relCfg.AckDelay = 25 * sim.Microsecond
	return vmmc.Options{
		Nodes:       nodes,
		Reliable:    true,
		Reliability: &relCfg,
		Faults:      pl,
		BuildFabric: DiamondFabric,
		Heal:        true,
	}
}

// runHealCase boots a 4-node cluster on the diamond fabric with healing
// on and streams msgs page-sized messages from node 0 to node 2 (across
// the spines) while the scripted outage bites mid-stream.
func (rn *Run) runHealCase(name string, outage sim.Time, spine bool, msgs int) (HealResult, *analysis.Report, error) {
	cl := rn.newCell("healsweep " + name)
	pl := fault.NewPlan(cl.eng, healSweepSeed)

	// slotByte is the expected fill of slot i; the last byte doubles as
	// the arrival flag the receiver spins on.
	slotByte := func(i int) byte { return byte(1 + i%250) }

	var (
		delivered int
		elapsed   sim.Time
		sendFails int64
	)
	c, err := cl.cluster(healing(4, pl, 4), "healsweep", func(p *sim.Proc, c *vmmc.Cluster) error {
		recv, err := c.Nodes[2].NewProcess(p)
		if err != nil {
			return err
		}
		send, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			return err
		}
		window := msgs * mem.PageSize
		buf, _ := recv.Malloc(window)
		if err := recv.Export(p, 1, buf, window, nil, false); err != nil {
			return err
		}
		dest, _, err := send.Import(p, 2, 1)
		if err != nil {
			return err
		}
		src, _ := send.Malloc(mem.PageSize)

		// Script the outage relative to the stream's start, so boot and
		// import time do not shift it between configurations.
		const outageAt = 400 * sim.Microsecond
		switch {
		case spine:
			// Kill whichever spine the booted route 0->2 crosses (the first
			// route byte is edge0's output port: 6 = spineA, 7 = spineB),
			// forever — only the remapped detour can finish the stream.
			dead := 2
			if route := c.Nodes[0].LCP.Routes(2); len(route) > 0 && route[0] == 7 {
				dead = 3
			}
			pl.SwitchOutage(dead, p.Now()+outageAt, 0)
		case outage > 0:
			pl.LinkOutage(c.Nodes[2].Board.NIC.ID, p.Now()+outageAt, p.Now()+outageAt+outage)
		}

		start := p.Now()
		page := make([]byte, mem.PageSize)
		for i := 0; i < msgs; i++ {
			for j := range page {
				page[j] = slotByte(i)
			}
			if err := send.Write(src, page); err != nil {
				return err
			}
			off := i * mem.PageSize
			if err := send.SendMsgChecked(p, src, dest+vmmc.ProxyAddr(off), mem.PageSize, vmmc.SendOptions{}); err != nil {
				return fmt.Errorf("send %d surfaced %w", i, err)
			}
		}
		// In-order delivery: the final slot's flag landing means all did.
		recv.SpinByte(p, buf+mem.VirtAddr(msgs*mem.PageSize-1), slotByte(msgs-1))
		elapsed = p.Now() - start

		got, err := recv.Read(buf, window)
		if err != nil {
			return err
		}
		for i := 0; i < msgs; i++ {
			exact := true
			for j := 0; j < mem.PageSize; j++ {
				if got[i*mem.PageSize+j] != slotByte(i) {
					exact = false
					break
				}
			}
			if exact {
				delivered++
			}
		}
		if delivered != msgs {
			return fmt.Errorf("delivered %d/%d slots", delivered, msgs)
		}
		if sendFails = send.Errors().SendFailures; sendFails != 0 {
			return fmt.Errorf("%d application-visible send failures, want 0", sendFails)
		}
		return nil
	})
	if err != nil {
		return HealResult{}, nil, err
	}

	// Short link outages may ride inside the go-back-N retransmit budget
	// and never stall — the sweep's interesting transition. Only the
	// permanent spine death is guaranteed to need a heal: the stream can
	// finish solely on a remapped detour.
	healed, swaps := cl.count("heal/healed"), cl.count("heal/route_swaps")
	if spine && healed == 0 {
		return HealResult{}, nil, cl.fail(errors.New("spine died but no window healed"))
	}
	if spine && swaps == 0 {
		return HealResult{}, nil, cl.fail(errors.New("spine died but no route swapped"))
	}

	r := HealResult{
		Case:           name,
		OutageUS:       outage.Micros(),
		Messages:       delivered,
		Sent:           msgs,
		VirtualElapsed: elapsed,
		Stalls:         cl.count("heal/stalls"),
		Remaps:         cl.count("heal/remaps"),
		RouteSwaps:     swaps,
		Healed:         healed,
		Abandoned:      cl.count("heal/abandoned"),
		Retransmits:    cl.count(fmt.Sprintf("lanai%d/rl_retransmits", c.Nodes[0].Board.NIC.ID)),
		SendFailures:   sendFails,
	}
	if elapsed > 0 {
		r.GoodputMBps = float64(delivered*mem.PageSize) / elapsed.Seconds() / 1e6
	}
	return r, cl.rep, nil
}
