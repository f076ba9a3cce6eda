package vmmc

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// Cluster is the full platform: N PCs with Myrinet interfaces on a switch
// fabric, plus the Ethernet the daemons use. Boot performs the paper's
// §4.3 sequence — run the mapping LCP, extract routes, then replace it
// with the VMMC LCP on every node.
type Cluster struct {
	Eng   *sim.Engine
	Prof  hw.Profile
	Net   *myrinet.Network
	Ether *ether.Bus
	Nodes []*Node

	booted   bool
	bootErr  error
	bootCond *sim.Cond

	healer *HealService
}

// Options configure a cluster.
type Options struct {
	// Nodes is the PC count (the paper's testbed has 4).
	Nodes int
	// MemBytes is physical memory per node; it must be a multiple of the
	// page size. Defaults to 16 MB.
	MemBytes int
	// Prof overrides the platform profile. Zero value means hw.Default().
	Prof *hw.Profile
	// Reliable enables the optional data-link reliability layer on every
	// board (VMMC-2-style go-back-N; see internal/lanai/reliable.go).
	// The paper's configuration is false: CRC errors are detected but
	// never recovered (§4.2).
	Reliable bool
	// Reliability overrides the link-layer tuning when Reliable is set.
	// Nil means lanai.DefaultReliability(). Large clusters want a bigger
	// retransmit budget and a delayed ack (see ReliabilityConfig).
	Reliability *lanai.ReliabilityConfig
	// Faults attaches a deterministic fault plan to the fabric, the
	// Ethernet side channel, and the nodes (scheduled crash/restart).
	// See internal/fault and docs/ROBUSTNESS.md.
	Faults *fault.Plan
	// Heal enables the self-healing layer (live remapping, route failover,
	// transparent transfer resumption — a deliberate extension beyond the
	// paper; see docs/ROBUSTNESS.md). Requires Reliable: healing works by
	// suspending and resuming stalled go-back-N windows. False (the
	// default) keeps the paper's static-route behavior, so existing
	// benchmarks are byte-identical with healing off.
	Heal bool
	// BuildFabric overrides the default topology: it receives the empty
	// network and must add switches, add exactly `nodes` NICs (in node-ID
	// order) and attach them. Use it to wire redundant fabrics — multiple
	// trunks between edge switches — that give the heal layer alternate
	// routes to fail over to.
	BuildFabric func(net *myrinet.Network, nodes int) error
}

// hostsPerSwitch leaves two ports per 8-port switch for trunking.
const hostsPerSwitch = 6

// NewCluster builds the hardware: for up to 8 nodes, one 8-port switch
// (the paper's M2F-SW8); beyond that, a chain of switches with 6 hosts
// each. The software boots when Boot runs inside the simulation.
func NewCluster(eng *sim.Engine, opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 || opts.Nodes > maxWireID+1 {
		return nil, fmt.Errorf("vmmc: cluster needs 1 to %d nodes (the packet header's node ids), not %d", maxWireID+1, opts.Nodes)
	}
	prof := hw.Default()
	if opts.Prof != nil {
		prof = *opts.Prof
	}
	memBytes := opts.MemBytes
	if memBytes == 0 {
		memBytes = 16 << 20
	}
	if frames := memBytes / mem.PageSize; frames-1 > maxWireFrame {
		return nil, fmt.Errorf("vmmc: %d frames per node; the packet header names at most %d", frames, maxWireFrame+1)
	}

	c := &Cluster{
		Eng:      eng,
		Prof:     prof,
		Net:      myrinet.New(eng, prof),
		Ether:    ether.New(eng, sim.Millisecond),
		bootCond: sim.NewCond(eng),
	}

	if opts.BuildFabric != nil {
		if err := opts.BuildFabric(c.Net, opts.Nodes); err != nil {
			return nil, err
		}
		if got := len(c.Net.NICs()); got != opts.Nodes {
			return nil, fmt.Errorf("vmmc: BuildFabric added %d NICs, want %d", got, opts.Nodes)
		}
	} else if opts.Nodes <= 8 {
		sw := c.Net.AddSwitch(8)
		for i := 0; i < opts.Nodes; i++ {
			nic := c.Net.AddNIC()
			if err := c.Net.AttachNIC(nic, sw, i); err != nil {
				return nil, err
			}
		}
	} else {
		nsw := (opts.Nodes + hostsPerSwitch - 1) / hostsPerSwitch
		switches := make([]*myrinet.Switch, nsw)
		for i := range switches {
			switches[i] = c.Net.AddSwitch(8)
			if i > 0 {
				if err := c.Net.ConnectSwitches(switches[i-1], 7, switches[i], 6); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < opts.Nodes; i++ {
			nic := c.Net.AddNIC()
			if err := c.Net.AttachNIC(nic, switches[i/hostsPerSwitch], i%hostsPerSwitch); err != nil {
				return nil, err
			}
		}
	}

	relCfg := lanai.DefaultReliability()
	if opts.Reliability != nil {
		relCfg = *opts.Reliability
	}
	for i, nic := range c.Net.NICs() {
		node := newNode(eng, prof, i, nic, memBytes, c.Ether)
		if opts.Reliable {
			if _, err := node.Board.EnableReliability(relCfg); err != nil {
				return nil, err
			}
		}
		c.Nodes = append(c.Nodes, node)
	}
	if opts.Faults != nil {
		c.Net.SetFaults(opts.Faults)
		c.Ether.SetFaults(opts.Faults)
		opts.Faults.OnNodeCrash(func(node int) { c.CrashNode(node) })
		opts.Faults.OnNodeRestart(func(node int) {
			if err := c.RestartNode(node); err != nil {
				panic(fmt.Sprintf("vmmc: restart node %d: %v", node, err))
			}
		})
	}
	if opts.Heal {
		if !opts.Reliable {
			return nil, fmt.Errorf("vmmc: Heal requires Reliable (healing suspends and resumes go-back-N windows)")
		}
		c.healer = newHealService(c)
	}
	return c, nil
}

// CrashNode kills a node abruptly: its link goes dark, its LCP and daemon
// die, all its page pins vanish, and its process handles turn stale. The
// rest of the cluster keeps running; reliable senders toward the dead node
// exhaust their retransmit budget and surface ErrNodeUnreachable, while
// the paper's unreliable configuration silently loses the packets.
func (c *Cluster) CrashNode(node int) {
	c.Nodes[node].crash()
	if c.healer != nil {
		c.healer.noteCrash(node)
	}
}

// RestartNode reboots a crashed node with a fresh LCP and daemon, and
// announces the restart to every live peer: its reliable link state toward
// the node is reset, so fresh sequence numbers are accepted, and its daemon
// drops the node's leases. Pre-crash exports are gone; importers re-import.
func (c *Cluster) RestartNode(node int) error {
	n := c.Nodes[node]
	if err := n.restart(); err != nil {
		return err
	}
	for _, peer := range c.Nodes {
		if peer == n || peer.crashed {
			continue
		}
		peer.Daemon.dropLeases(node)
		if rl := peer.Board.Reliable(); rl != nil {
			rl.ResetPeer(node)
		}
	}
	if c.healer != nil {
		c.healer.noteRestart(node)
	}
	return nil
}

// Boot schedules the boot sequence; it completes as the simulation runs.
// The cluster:boot process runs the mapping LCP — one central probe round
// from node 0, the same round the self-healing layer re-runs after boot
// (myrinet.MapFabric) — then starts the VMMC LCP on every node with the
// routes the round computed for it.
func (c *Cluster) Boot() {
	// A probe's reply crosses up to 2*depth switch hops; a timeout
	// shorter than that round trip reads distant hosts as absent.
	depth := len(c.Net.Switches()) + 1
	timeout := 20*sim.Microsecond + sim.Time(2*depth)*c.Prof.SwitchLatency
	c.Eng.Go("cluster:boot", func(p *simProc) {
		tables := myrinet.MapFabric(p, c.Net, depth, timeout)
		for _, n := range c.Nodes {
			if err := n.start(tables[n.ID]); err != nil {
				c.bootErr = fmt.Errorf("vmmc: node %d boot: %w", n.ID, err)
				break
			}
		}
		c.booted = true
		c.bootCond.Broadcast()
	})
}

// WaitBoot parks p until the boot sequence finishes.
func (c *Cluster) WaitBoot(p *simProc) error {
	for !c.booted {
		c.bootCond.Wait(p)
	}
	return c.bootErr
}

// Go spawns a workload process that starts once the cluster is booted.
func (c *Cluster) Go(name string, fn func(p *simProc)) {
	c.Eng.Go(name, func(p *simProc) {
		if err := c.WaitBoot(p); err != nil {
			panic(err)
		}
		fn(p)
	})
}

// Start boots the cluster and runs the simulation until the workload
// processes spawned with Go complete.
func (c *Cluster) Start() error {
	c.Boot()
	if err := c.Eng.Run(); err != nil {
		return err
	}
	return c.bootErr
}
