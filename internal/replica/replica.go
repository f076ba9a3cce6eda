// Package replica adds per-shard replication to the vRPC serving tier:
// every shard runs R copies on distinct nodes, clients pick a replica
// per read with deterministic least-loaded-of-two-choices routing fed
// by the load hints servers piggyback on replies, and a failed attempt
// — overload shed, timeout, unreachable node — retries against a
// *different* replica than the one that just failed. Writes go through
// the shard's primary (replica 0), which applies them asynchronously to
// the followers; per-key version tags let a client detect a stale
// follower read and re-read the primary, giving read-your-writes
// without synchronous replication.
//
// The availability claim this buys — a replica death costs goodput
// nothing, only a tail bump — is measured by bench.ReplicaSweep
// (`vmmcbench -experiment replicasweep`): an R ablation at equal total
// capacity, a hot-shard routing cell, and a mid-measurement
// KillProcess cell.
package replica

import (
	"fmt"
	"sort"

	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// Versioned KV service program numbers. A distinct program from
// serve.ProgKV: replies carry version tags and the Apply procedure is
// primary-to-follower only.
const (
	ProgKV    = 0x20000201
	VersKV    = 1
	ProcGet   = 1 // key -> found, version, value
	ProcPut   = 2 // key, value -> version (primary only)
	ProcApply = 3 // key, version, value -> () (replication stream)
)

// RoutingConfig tunes the client-side replica router. The zero value
// selects load-aware two-choice routing.
type RoutingConfig struct {
	// Static disables load awareness: replica choice is a pure key hash
	// (the ablation baseline). Failover semantics are unchanged — a
	// retry still avoids the replica that just failed.
	Static bool
	// AttemptTimeout clamps each attempt's deadline to now+AttemptTimeout
	// (never past the request deadline). A dead replica then costs one
	// attempt budget instead of the whole request budget, which is what
	// lets failover finish inside the deadline. Zero disables clamping.
	AttemptTimeout sim.Time
	// Seed drives the router's deterministic two-choice sampling.
	Seed uint64
}

// Config describes a replicated serving tier on an existing cluster.
type Config struct {
	Shards      int
	R           int   // replicas per shard (1 = unreplicated baseline)
	Nodes       []int // candidate server nodes; Shards*R must fit distinctly
	ClientNodes []int
	Conns       int // connections (= workers) per (client node, shard)
	ServiceTime sim.Time
	Keys        int
	ValueBytes  int
	// Admission is the per-replica server admission policy; nil admits
	// everything.
	Admission *serve.AdmissionConfig
	Routing   RoutingConfig
	// ApplyDeadline bounds each asynchronous follower-apply RPC.
	// Default 300 µs.
	ApplyDeadline sim.Time
}

// entry is one stored value with its version tag. Versions are per-key,
// assigned by the primary, strictly increasing from 1 (preloaded keys
// start at 1 on every replica).
type entry struct {
	ver uint64
	val []byte
}

// Replica is one copy of a shard: a vRPC server with a versioned store
// plus its routing and replication counters.
type Replica struct {
	Shard int
	Idx   int // 0 = primary
	Node  int

	srv   *rpc.Server
	proc  *vmmc.Process
	store map[uint32]entry

	Offered int64 // client attempts the router sent here
	serve.AdmissionCounters

	Applies      int64 // replication applies accepted (followers)
	StaleApplies int64 // applies superseded by a newer version
	ApplyFails   int64 // applies lost to timeout/unreachable (set by the primary's applier)
	ApplySkipped int64 // applies shed/expired at the follower and not re-sent
	Dead         bool  // the primary's applier gave up on this follower
}

// Server exposes the replica's underlying vRPC server (tests).
func (r *Replica) Server() *rpc.Server { return r.srv }

// ReplicaSet is the R copies of one shard. Replicas[0] is the primary.
type ReplicaSet struct {
	Shard    int
	Replicas []*Replica
}

// Tier is a running replicated serving tier.
type Tier struct {
	eng     *sim.Engine
	cluster *vmmc.Cluster
	cfg     Config
	sets    []*ReplicaSet
	router  *router
	applies []*applyQueue   // indexed [shard*(R-1) + (follower-1)]
	procs   []*vmmc.Process // every process the tier created

	// onAttempt, when set, observes every routed attempt (shard,
	// replica) — the alternation regression test's probe.
	onAttempt func(shard, replica int)
}

// Sets returns the tier's replica sets.
func (t *Tier) Sets() []*ReplicaSet { return t.sets }

// Set returns shard g's replica set.
func (t *Tier) Set(g int) *ReplicaSet { return t.sets[g] }

// place assigns R distinct nodes to each shard from the candidate pool:
// least-loaded first, ties broken by node id, stable and deterministic. Because the tier requires Shards*R distinct nodes (two
// server processes on one node would collide on their exported window
// tags), the result is a balanced partition of the pool prefix.
func place(shards, r int, nodes []int) ([][]int, error) {
	seen := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("replica: duplicate candidate node %d", n)
		}
		seen[n] = true
	}
	if shards*r > len(nodes) {
		return nil, fmt.Errorf("replica: %d shards x %d replicas need %d distinct nodes, have %d",
			shards, r, shards*r, len(nodes))
	}
	perNode := make(map[int]int, len(nodes))
	out := make([][]int, shards)
	for g := 0; g < shards; g++ {
		ids := append([]int(nil), nodes...)
		sort.SliceStable(ids, func(a, b int) bool {
			la, lb := perNode[ids[a]], perNode[ids[b]]
			if la != lb {
				return la < lb
			}
			return ids[a] < ids[b]
		})
		out[g] = ids[:r:r]
		for _, id := range out[g] {
			perNode[id]++
		}
	}
	return out, nil
}

// clientSlots is the globally-unique slot count client connections
// occupy; apply connections use the slots above it.
func (t *Tier) clientSlots() int {
	return len(t.cfg.ClientNodes) * t.cfg.Shards * t.cfg.R * t.cfg.Conns
}

// slotFor maps (client node, shard, replica, connection) to a globally
// unique server slot: reply tags are repTagBase+slot per client
// process, so every dial from one process needs its own slot.
func (t *Tier) slotFor(cIdx, sIdx, j, conn int) int {
	return ((cIdx*t.cfg.Shards+sIdx)*t.cfg.R+j)*t.cfg.Conns + conn
}

// applySlot is the server slot the primary's applier dials on follower
// j (1-based among the shard's replicas).
func (t *Tier) applySlot(j int) int { return t.clientSlots() + (j - 1) }

// slotsPerServer is the request-window count each replica server
// exports: every client slot (the layout is shared tier-wide) plus the
// apply slots.
func (t *Tier) slotsPerServer() int {
	n := t.clientSlots() + t.cfg.R - 1
	if n < 1 {
		n = 1
	}
	return n
}

// Build constructs the replicated tier: R vRPC servers per shard on
// distinct nodes with versioned KV handlers, admission policy, and
// reply load hints enabled; an asynchronous applier per (shard,
// follower) on the primary's process; and the shared client-side
// router.
func Build(p *sim.Proc, c *vmmc.Cluster, cfg Config) (*Tier, error) {
	if cfg.Shards <= 0 || len(cfg.ClientNodes) == 0 {
		return nil, fmt.Errorf("replica: config needs shards and client nodes")
	}
	if cfg.R <= 0 {
		cfg.R = 1
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 128
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = sim.Micros(30)
	}
	if cfg.ApplyDeadline <= 0 {
		cfg.ApplyDeadline = sim.Micros(300)
	}
	placement, err := place(cfg.Shards, cfg.R, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	t := &Tier{eng: c.Eng, cluster: c, cfg: cfg}
	t.router = newRouter(cfg.Routing, cfg.Shards, cfg.R)
	for g := 0; g < cfg.Shards; g++ {
		set := &ReplicaSet{Shard: g}
		for j := 0; j < cfg.R; j++ {
			node := placement[g][j]
			proc, err := c.Nodes[node].NewProcess(p)
			if err != nil {
				return nil, err
			}
			t.procs = append(t.procs, proc)
			srv, err := rpc.NewServer(p, proc, t.slotsPerServer())
			if err != nil {
				return nil, err
			}
			rep := &Replica{Shard: g, Idx: j, Node: node, srv: srv, proc: proc, store: make(map[uint32]entry)}
			// Preload: every key the shard owns (keys stripe across
			// shards modulo the shard count), version 1 on every copy.
			for k := 0; k < cfg.Keys; k++ {
				if k%cfg.Shards != g {
					continue
				}
				val := make([]byte, cfg.ValueBytes)
				for i := range val {
					val[i] = byte(k*31 + i)
				}
				rep.store[uint32(k)] = entry{ver: 1, val: val}
			}
			t.registerHandlers(set, rep)
			srv.SetAdmission(rep.Policy(t.eng, fmt.Sprintf("replica/s%dr%d/queue_depth", g, j), cfg.Admission, cfg.ServiceTime))
			srv.SetLoadHints(true)
			srv.Start()
			set.Replicas = append(set.Replicas, rep)
		}
		t.sets = append(t.sets, set)
	}
	if err := t.startAppliers(p); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tier) registerHandlers(set *ReplicaSet, rep *Replica) {
	service := t.cfg.ServiceTime
	rep.srv.Register(ProgKV, VersKV, ProcGet, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		key, err := args.Uint32()
		if err != nil {
			return xdr.AcceptGarbageArgs
		}
		p.Sleep(service)
		e, ok := rep.store[key]
		if !ok {
			res.PutUint32(0)
			res.PutUint64(0)
			return xdr.AcceptSuccess
		}
		res.PutUint32(1)
		res.PutUint64(e.ver)
		res.PutOpaque(e.val)
		return xdr.AcceptSuccess
	})
	rep.srv.Register(ProgKV, VersKV, ProcPut, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		key, err1 := args.Uint32()
		val, err2 := args.Opaque(rpc.SlotBytes)
		if err1 != nil || err2 != nil {
			return xdr.AcceptGarbageArgs
		}
		p.Sleep(service)
		stored := make([]byte, len(val))
		copy(stored, val)
		ver := rep.store[key].ver + 1
		rep.store[key] = entry{ver: ver, val: stored}
		// Asynchronous replication: the reply does not wait for the
		// followers — the applier daemons drain these queues.
		t.enqueueApplies(set, key, ver, stored)
		res.PutUint64(ver)
		return xdr.AcceptSuccess
	})
	rep.srv.Register(ProgKV, VersKV, ProcApply, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		key, err1 := args.Uint32()
		ver, err2 := args.Uint64()
		val, err3 := args.Opaque(rpc.SlotBytes)
		if err1 != nil || err2 != nil || err3 != nil {
			return xdr.AcceptGarbageArgs
		}
		p.Sleep(service)
		if cur := rep.store[key].ver; ver > cur {
			stored := make([]byte, len(val))
			copy(stored, val)
			rep.store[key] = entry{ver: ver, val: stored}
			rep.Applies++
		} else {
			// A newer put already landed (or this is a replay): version
			// tags make application order-independent.
			rep.StaleApplies++
		}
		return xdr.AcceptSuccess
	})
}

// KillReplica kills replica j of shard g with the scoped KillProcess
// path: exports and imports are scrubbed locally, in-flight chunks for
// its windows are dropped at the interface, and no wire traffic is
// generated. Clients see timeouts, never corruption.
func (t *Tier) KillReplica(g, j int) {
	rep := t.sets[g].Replicas[j]
	rep.proc.Node.KillProcess(rep.proc.Pid)
}

// TransportErrors sums send and import failures across every process
// the tier created — the "zero victim errors" check for kill cells.
func (t *Tier) TransportErrors() int64 { return serve.TransportErrors(t.procs) }

// EmitUsage publishes each replica's routing, admission, and
// replication counters as trace counters in the "replica" category,
// which the analysis layer collects into the per-replica attribution
// section of its report. Deterministic: values derive only from
// virtual-time execution.
func (t *Tier) EmitUsage() {
	for _, set := range t.sets {
		for _, rep := range set.Replicas {
			comp := fmt.Sprintf("replica/s%dr%d", rep.Shard, rep.Idx)
			t.eng.TraceCounter(comp, "replica", "offered", float64(rep.Offered))
			t.eng.TraceCounter(comp, "replica", "served", float64(rep.srv.Calls))
			t.eng.TraceCounter(comp, "replica", "shed_arrive", float64(rep.ShedArrive))
			t.eng.TraceCounter(comp, "replica", "shed_serve", float64(rep.ShedServe))
			t.eng.TraceCounter(comp, "replica", "expired", float64(rep.srv.Expired))
			t.eng.TraceCounter(comp, "replica", "depth_peak", float64(rep.DepthPeak))
			t.eng.TraceCounter(comp, "replica", "applies", float64(rep.Applies))
			t.eng.TraceCounter(comp, "replica", "stale_applies", float64(rep.StaleApplies))
			t.eng.TraceCounter(comp, "replica", "apply_fails", float64(rep.ApplyFails))
		}
	}
}
