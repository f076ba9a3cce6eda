// Package serve is a sharded key-value RPC service built on vRPC — the
// first workload that exercises the VMMC stack the way a production
// front-end tier would. Ethernet-side client nodes model internet users
// driving open-loop Poisson arrivals with Zipf-skewed keys into shard
// servers on a VMMC cluster, and the package carries the robustness
// machinery that keeps the tier alive past its capacity knee:
//
//   - deadline propagation: every request carries its remaining budget
//     (rpc.CallDeadline); servers refuse expired work instead of doing it;
//   - admission control: a bounded arrival queue with CoDel-style target
//     sojourn shedding turns overload into cheap typed ErrOverloaded
//     rejections instead of a metastable queue collapse;
//   - retry budgets: clients retry with exponential backoff and
//     deterministic seeded jitter, gated by a token bucket so retries
//     cannot amplify overload into a retry storm.
//
// A wedged shard surfaces as a typed ShardStuckError naming the shard,
// backlog depth, and oldest request age (a deadlock wrapper, mirroring
// coll.CreditDeadlockError). bench.ServeSweep drives the tier across
// offered-load rates, an admission on/off ablation, a hot-shard cell,
// and a link-outage + heal cell.
package serve

import (
	"fmt"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// KV service program numbers.
const (
	ProgKV  = 0x20000101
	VersKV  = 1
	ProcGet = 1
	ProcPut = 2
)

// AdmissionConfig is the shard servers' overload policy. Zero values
// disable the corresponding check.
type AdmissionConfig struct {
	// MaxQueue bounds the arrival queue: a request that would make the
	// queue deeper is shed immediately (fail fast at the door).
	MaxQueue int
	// Target is the CoDel-style sojourn bound: a request that waited in
	// queue longer than this is shed at dispatch rather than served —
	// when the queue cannot drain within Target, serving the head only
	// sustains the backlog.
	Target sim.Time
}

// valueBytes is the size of every preloaded value.
const valueBytes = 128

// Config describes a serving tier on an existing cluster.
type Config struct {
	ShardNodes  []int // cluster node per shard
	ClientNodes []int // front-end client nodes (the "Ethernet side")
	Conns       int   // vRPC connections per (client node, shard)
	ServiceTime sim.Time
	Keys        int
	// Admission enables server-side admission control; nil is the
	// ablation baseline (every request queued and served).
	Admission *AdmissionConfig
}

// AdmissionCounters are one server's admission-policy counters, embedded
// by every server type that installs Policy.
type AdmissionCounters struct {
	ShedArrive int64 // shed at the arrival queue bound
	ShedServe  int64 // shed at dispatch (sojourn target or hopeless budget)
	DepthPeak  int   // high-water arrival-queue depth
}

// Shard is one KV shard: a vRPC server plus its admission counters.
type Shard struct {
	ID    int
	Node  int
	srv   *rpc.Server
	store map[uint32][]byte

	Offered int64 // requests routed to this shard by the load generator
	AdmissionCounters
}

// Server exposes the shard's underlying vRPC server (counters,
// SetAdmission for tests).
func (s *Shard) Server() *rpc.Server { return s.srv }

// Tier is a running serving tier.
type Tier struct {
	eng     *sim.Engine
	cluster *vmmc.Cluster
	cfg     Config
	shards  []*Shard
	loop    *OpenLoop       // set while RunOpenLoop is active
	procs   []*vmmc.Process // every process the tier created
}

// Shards returns the tier's shards.
func (t *Tier) Shards() []*Shard { return t.shards }

// Shard returns shard i.
func (t *Tier) Shard(i int) *Shard { return t.shards[i] }

// slotFor maps (client node index, shard index, connection) to a
// globally unique server slot. Reply tags are repTagBase+slot on the
// client node, so the slot id must be unique per client node across
// every shard it dials; encoding all three coordinates keeps the whole
// tier collision-free at the cost of servers exporting request windows
// for slots other shards own (a few hundred KB each — cheap).
func (t *Tier) slotFor(cIdx, sIdx, conn int) int {
	return (cIdx*len(t.cfg.ShardNodes)+sIdx)*t.cfg.Conns + conn
}

// slotsPerServer is the request-window count every shard server exports.
// Clamped to one slot so a Conns=0 tier (no connections dialed — used to
// exercise the shard-stuck path) still builds.
func slotsPerServer(cfg Config) int {
	n := len(cfg.ClientNodes) * len(cfg.ShardNodes) * cfg.Conns
	if n < 1 {
		n = 1
	}
	return n
}

// Build constructs the tier on the cluster: one vRPC server per shard
// node with the KV handlers registered and the admission policy
// installed, stores preloaded with deterministic values, and the
// shard-stuck deadlock wrapper armed on the engine.
func Build(p *sim.Proc, c *vmmc.Cluster, cfg Config) (*Tier, error) {
	if len(cfg.ShardNodes) == 0 || len(cfg.ClientNodes) == 0 {
		return nil, fmt.Errorf("serve: config needs shard and client nodes")
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = sim.Micros(30)
	}
	t := &Tier{eng: c.Eng, cluster: c, cfg: cfg}
	for i, node := range cfg.ShardNodes {
		proc, err := c.Nodes[node].NewProcess(p)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, proc)
		srv, err := rpc.NewServer(p, proc, slotsPerServer(cfg))
		if err != nil {
			return nil, err
		}
		sh := &Shard{ID: i, Node: node, srv: srv, store: make(map[uint32][]byte)}
		// Preload: every key this shard owns (keys stripe across shards
		// modulo the shard count) gets a deterministic value.
		for k := 0; k < cfg.Keys; k++ {
			if k%len(cfg.ShardNodes) != i {
				continue
			}
			val := make([]byte, valueBytes)
			for j := range val {
				val[j] = byte(k*31 + j)
			}
			sh.store[uint32(k)] = val
		}
		t.registerHandlers(sh)
		srv.SetAdmission(sh.Policy(t.eng, fmt.Sprintf("serve/shard%d/queue_depth", sh.ID), cfg.Admission, cfg.ServiceTime))
		srv.Start()
		t.shards = append(t.shards, sh)
	}
	t.armDeadlockReport()
	return t, nil
}

func (t *Tier) registerHandlers(sh *Shard) {
	service := t.cfg.ServiceTime
	sh.srv.Register(ProgKV, VersKV, ProcGet, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		key, err := args.Uint32()
		if err != nil {
			return xdr.AcceptGarbageArgs
		}
		p.Sleep(service) // the application work: index probe, value fetch
		val, ok := sh.store[key]
		if !ok {
			res.PutUint32(0)
			return xdr.AcceptSuccess
		}
		res.PutUint32(1)
		res.PutOpaque(val)
		return xdr.AcceptSuccess
	})
	sh.srv.Register(ProgKV, VersKV, ProcPut, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		key, err1 := args.Uint32()
		val, err2 := args.Opaque(rpc.SlotBytes)
		if err1 != nil || err2 != nil {
			return xdr.AcceptGarbageArgs
		}
		p.Sleep(service)
		stored := make([]byte, len(val))
		copy(stored, val)
		sh.store[key] = stored
		return xdr.AcceptSuccess
	})
}

// Policy builds the rpc.AdmissionFunc that enforces cfg for a server
// whose handlers take service time per request, counting into c and
// publishing the arrival-queue depth on the named gauge. With cfg nil
// (admission disabled) the policy still counts, so depth statistics
// exist for the ablation comparison; it admits everything and adds no
// simulated cost, leaving timing untouched.
func (c *AdmissionCounters) Policy(eng *sim.Engine, gauge string, cfg *AdmissionConfig, service sim.Time) rpc.AdmissionFunc {
	var ac AdmissionConfig
	if cfg != nil {
		ac = *cfg
	}
	depthGauge := eng.Metrics().Gauge(gauge)
	return func(phase rpc.AdmitPhase, depth int, waited, remaining sim.Time) bool {
		if depth > c.DepthPeak {
			c.DepthPeak = depth
		}
		depthGauge.Set(float64(depth))
		switch phase {
		case rpc.AdmitArrive:
			if ac.MaxQueue > 0 && depth > ac.MaxQueue {
				c.ShedArrive++
				return false
			}
		case rpc.AdmitServe:
			if ac.Target > 0 && waited > ac.Target {
				c.ShedServe++
				return false
			}
			// A request whose remaining budget cannot cover the service
			// time is hopeless: shed it (retriable — a retry arrives
			// with a fresh budget) rather than produce a reply that
			// expires in flight.
			if (ac.MaxQueue > 0 || ac.Target > 0) && remaining != rpc.NoDeadline && remaining < service {
				c.ShedServe++
				return false
			}
		}
		return true
	}
}

// armDeadlockReport registers the tier's deadlock wrapper: if the
// simulation wedges while requests are queued against a shard, the raw
// engine report is wrapped in a ShardStuckError naming the deepest
// backlog. With no backlog the report passes through untouched.
func (t *Tier) armDeadlockReport() {
	t.eng.AddDeadlockWrapper(func(err error) error {
		now := t.eng.Now()
		worst, depth, age := -1, 0, sim.Time(0)
		for _, sh := range t.shards {
			d := sh.srv.QueueDepth()
			a := sh.srv.OldestWait(now)
			if t.loop != nil {
				q := t.loop.queues[sh.ID]
				d += len(q.items)
				if len(q.items) > 0 {
					if w := now - q.items[0].Arrival; w > a {
						a = w
					}
				}
			}
			if d > depth {
				worst, depth, age = sh.ID, d, a
			}
		}
		if worst < 0 {
			return err
		}
		return &ShardStuckError{Shard: worst, Depth: depth, OldestAge: age, Err: err}
	})
}

// EmitUsage publishes each shard's admission and outcome counters as
// trace counters in the "serve" category, which the analysis layer
// collects into the per-shard attribution section of its report.
// Deterministic: values derive only from virtual-time execution.
func (t *Tier) EmitUsage() {
	for _, sh := range t.shards {
		comp := fmt.Sprintf("serve/shard%d", sh.ID)
		t.eng.TraceCounter(comp, "serve", "offered", float64(sh.Offered))
		t.eng.TraceCounter(comp, "serve", "served", float64(sh.srv.Calls))
		t.eng.TraceCounter(comp, "serve", "shed_arrive", float64(sh.ShedArrive))
		t.eng.TraceCounter(comp, "serve", "shed_serve", float64(sh.ShedServe))
		t.eng.TraceCounter(comp, "serve", "expired", float64(sh.srv.Expired))
		t.eng.TraceCounter(comp, "serve", "depth_peak", float64(sh.DepthPeak))
	}
}
