package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// replicasweep's geometry and policy: six servers, two front ends, 24
// worker connections, with the serving tier's admission settings.
const (
	kvServers  = 6
	kvShards   = 3
	kvR        = 2
	kvConns    = 4 // per (front end, shard): 2 x 3 x 4 = 24 workers
	kvService  = 30 * sim.Microsecond
	kvDeadline = 400 * sim.Microsecond
	kvAttempt  = 250 * sim.Microsecond
	kvMaxQueue = 6
	kvTarget   = 120 * sim.Microsecond
	kvKeys     = 60
	kvTheta    = 1.1
	kvPutFrac  = 0.15
	kvRate     = 45000 // offered requests per virtual second: past the knee
	kvValue    = 128

	kvApplyDeadline = 3 * sim.Millisecond
)

// Why: open-loop Poisson load past the knee on the replicated KV tier: the
// only workload where rpc deadlines and admission, serve shedding and retry
// budgets, and replica routing and apply decide the result
var kvWorkload = &workload{
	name:      "kv_overload",
	opsPerSec: 4500,
	unit:      1,
	opts:      func() vmmc.Options { return vmmc.Options{Nodes: kvServers + 2, MemBytes: 16 << 20} },
	build:     buildKV,
}

// kvReq is one generated request.
type kvReq struct {
	id       int64
	key      uint32
	put      bool
	arrival  sim.Time // scheduled arrival; latency is measured from here
	deadline sim.Time
	span     int // the request's root span, opened at arrival
}

// kvOverload drives the replica tier from the benchmark's own open-loop
// generator: arrivals are scheduled in virtual time, queued per shard and
// served by one worker process per connection.
type kvOverload struct {
	e       *env
	c       *vmmc.Cluster
	tier    *replica.Tier
	clients []*vmmc.Process
	groups  []*replica.Group // worker w serves shard w / kvConns % kvShards
	queues  [kvShards][]kvReq
	wake    [kvShards]*sim.Cond
	closed  bool
	working bool

	arrivalRng, keyRng, opRng uint64
	zipf                      zipf
	next                      sim.Time // next scheduled arrival
	want                      []uint64 // highest version written per key (read-your-writes floor)

	offered, resolved int64
	resolvedCond      *sim.Cond
	firstErr          error

	// Outcome and layer counters.
	shed, expired, timedOut, late, dropped, untyped int64
	puts, gets, rywFallbacks, rywViolations         int64
	lateMax                                         sim.Time
	backlogPeak                                     int
}

func buildKV(p *sim.Proc, c *vmmc.Cluster, e *env) (runner, error) {
	kv := &kvOverload{
		e: e, c: c,
		arrivalRng: e.seed + 0x5eed, keyRng: e.seed ^ 0xface, opRng: e.seed ^ 0xbead,
		zipf:         newZipf(kvKeys, kvTheta),
		want:         make([]uint64, kvKeys),
		resolvedCond: sim.NewCond(c.Eng),
	}
	for k := range kv.want {
		kv.want[k] = 1 // preloaded version
	}
	for g := range kv.wake {
		kv.wake[g] = sim.NewCond(c.Eng)
	}
	servers := make([]int, kvServers)
	for i := range servers {
		servers[i] = i + 1
	}
	frontEnds := []int{0, kvServers + 1}
	var err error
	kv.tier, err = replica.Build(p, c, replica.Config{
		Shards:      kvShards,
		R:           kvR,
		Nodes:       servers,
		ClientNodes: frontEnds,
		Conns:       kvConns,
		ServiceTime: kvService,
		Keys:        kvKeys,
		ValueBytes:  kvValue,
		Admission:   &serve.AdmissionConfig{MaxQueue: kvMaxQueue, Target: kvTarget},
		Routing:     replica.RoutingConfig{AttemptTimeout: kvAttempt, Seed: e.seed ^ 0x9e11ca01},
		// At the default 300 us, sustained overload times out three applies
		// in a row and the primary latches the follower dead for good; how
		// many followers that hits (0 to 2 of 3) is seed luck and moves
		// ok_frac from 0.76 to 0.69. A deadline no queue can outlast keeps
		// every run in the one regime where replication is still working.
		ApplyDeadline: kvApplyDeadline,
	})
	if err != nil {
		return nil, err
	}
	for cIdx, node := range frontEnds {
		proc, err := c.Nodes[node].NewProcess(p)
		if err != nil {
			return nil, err
		}
		kv.clients = append(kv.clients, proc)
		for g := 0; g < kvShards; g++ {
			for k := 0; k < kvConns; k++ {
				pol := serve.DefaultRetryPolicy(e.seed ^ (uint64(cIdx)<<40 | uint64(g)<<20 | uint64(k)))
				grp, err := kv.tier.DialGroup(p, proc, cIdx, g, k, pol)
				if err != nil {
					return nil, err
				}
				// Warm every replica connection; check the preload.
				for j := 0; j < kvR; j++ {
					val, ver, found, err := grp.GetFrom(p, j, uint32(g), 0)
					if err != nil {
						return nil, fmt.Errorf("warm get s%dr%d: %w", g, j, err)
					}
					if !found || kv.checkValue(uint32(g), ver, val) != nil {
						return nil, fmt.Errorf("warm get s%dr%d returned a wrong preload", g, j)
					}
				}
				kv.groups = append(kv.groups, grp)
			}
		}
	}
	// Warm traffic is not part of the measured counters.
	for _, set := range kv.tier.Sets() {
		for _, rep := range set.Replicas {
			rep.Server().Calls, rep.Offered, rep.Applies, rep.StaleApplies = 0, 0, 0, 0
		}
	}
	return kv, nil
}

// putValue is the value request id writes to key: self-describing (id and
// key up front) so a reader can check any version without knowing who
// wrote it, then seeded bytes.
func (kv *kvOverload) putValue(key uint32, id int64) []byte {
	val := make([]byte, kvValue)
	binary.BigEndian.PutUint64(val, uint64(id))
	binary.BigEndian.PutUint32(val[8:], key)
	rng := kv.e.seed ^ uint64(id)<<20 ^ uint64(key)
	fill(&rng, val[12:])
	return val
}

// checkValue verifies a value read for key at version ver: version 1 is
// the tier's preload pattern, anything later must be a putValue.
func (kv *kvOverload) checkValue(key uint32, ver uint64, val []byte) error {
	if len(val) != kvValue {
		return fmt.Errorf("key %d: value is %d bytes", key, len(val))
	}
	if ver <= 1 {
		for i, b := range val {
			if b != byte(int(key)*31+i) {
				return fmt.Errorf("key %d: preload byte %d is wrong", key, i)
			}
		}
		return nil
	}
	id := int64(binary.BigEndian.Uint64(val))
	want := kv.putValue(key, id)
	for i := range val {
		if val[i] != want[i] {
			return fmt.Errorf("key %d version %d: byte %d does not match put %d", key, ver, i, id)
		}
	}
	return nil
}

// worker drains one shard's queue over one connection group.
func (kv *kvOverload) worker(g int, grp *replica.Group) func(*sim.Proc) {
	return func(wp *sim.Proc) {
		for {
			for len(kv.queues[g]) == 0 && !kv.closed {
				kv.wake[g].Wait(wp)
			}
			if len(kv.queues[g]) == 0 {
				return
			}
			req := kv.queues[g][0]
			kv.queues[g] = kv.queues[g][1:]
			kv.serve(wp, grp, req)
			kv.resolved++
			kv.resolvedCond.Broadcast()
		}
	}
}

// serve resolves one request and classifies its outcome. Only an OK
// request (right bytes, inside its deadline) has a latency sample.
func (kv *kvOverload) serve(wp *sim.Proc, grp *replica.Group, req kvReq) {
	rec, op := kv.e.rec, req.span
	defer rec.end(wp, op)
	if wp.Now() >= req.deadline {
		kv.dropped++
		return
	}
	var err error
	if req.put {
		var ver uint64
		sp := rec.begin(wp, op, req.id, "replica", "Put")
		ver, err = grp.Put(wp, req.key, kv.putValue(req.key, req.id), req.deadline)
		rec.end(wp, sp)
		if err == nil && ver > kv.want[req.key] {
			kv.want[req.key] = ver
		}
	} else {
		floor := kv.want[req.key]
		sp := rec.begin(wp, op, req.id, "replica", "GetRYW")
		val, ver, found, _, fallback, gerr := grp.GetRYW(wp, req.key, floor, req.deadline)
		rec.end(wp, sp)
		err = gerr
		if fallback {
			kv.rywFallbacks++
		}
		if err == nil {
			if ver < floor {
				kv.rywViolations++
			}
			if !found {
				err = fmt.Errorf("key %d not found", req.key)
			} else {
				err = kv.checkValue(req.key, ver, val)
			}
			if err != nil && kv.firstErr == nil {
				kv.firstErr = err
			}
		}
	}
	switch {
	case err == nil && wp.Now() > req.deadline:
		kv.late++
	case err == nil:
		kv.e.ok++
		kv.e.okBytes += kvValue
		kv.e.lat = append(kv.e.lat, wp.Now()-req.arrival)
	case errors.Is(err, rpc.ErrOverloaded):
		kv.shed++
	case errors.Is(err, rpc.ErrDeadlineExceeded):
		kv.expired++
	case errors.Is(err, rpc.ErrRPCTimeout):
		kv.timedOut++
	case errors.Is(err, serve.ErrDeadlinePassed):
		kv.dropped++
	default:
		kv.untyped++
		if kv.firstErr == nil {
			kv.firstErr = err
		}
	}
}

// batch offers n requests on the Poisson schedule and returns when the
// last one has been queued; requests still in flight carry over into the
// next batch, as they would for any open-loop source.
func (kv *kvOverload) batch(p *sim.Proc, n int) error {
	if !kv.working {
		kv.working = true
		kv.next = p.Now()
		for w, grp := range kv.groups {
			g := w / kvConns % kvShards
			p.Engine().Go(fmt.Sprintf("kv:worker:%d", w), kv.worker(g, grp))
		}
	}
	for i := 0; i < n; i++ {
		gap := -math.Log(1-unit(&kv.arrivalRng)) * float64(sim.Second) / kvRate
		kv.next += sim.Time(gap)
		if kv.next > p.Now() {
			p.Sleep(kv.next - p.Now())
		}
		if l := p.Now() - kv.next; l > kv.lateMax {
			kv.lateMax = l
		}
		key := uint32(kv.zipf.draw(&kv.keyRng))
		req := kvReq{id: kv.offered, key: key, put: unit(&kv.opRng) < kvPutFrac,
			arrival: kv.next, deadline: kv.next + kvDeadline}
		req.span = kv.e.rec.begin(p, 0, req.id, "loadgen", "request")
		kv.offered++
		kv.e.attempted++
		if req.put {
			kv.puts++
		} else {
			kv.gets++
		}
		g := int(key) % kvShards
		kv.queues[g] = append(kv.queues[g], req)
		kv.wake[g].Signal()
		if b := kv.tier.ApplyBacklog(g); b > kv.backlogPeak {
			kv.backlogPeak = b
		}
	}
	return kv.firstErr
}

// finish drains the tier, stops the workers and checks that the run was
// clean: every offered request resolved, no untyped or transport error,
// no read-your-writes violation, a generator that never ran late.
func (kv *kvOverload) finish(p *sim.Proc) error {
	for kv.resolved < kv.offered {
		kv.resolvedCond.Wait(p)
	}
	kv.closed = true
	for g := range kv.wake {
		kv.wake[g].Broadcast()
	}
	transport := kv.tier.TransportErrors()
	for _, proc := range kv.clients {
		pe := proc.Errors()
		transport += pe.SendFailures + pe.ImportFailures
	}
	accounted := kv.e.ok + kv.late + kv.shed + kv.expired + kv.timedOut + kv.dropped + kv.untyped
	switch {
	case kv.firstErr != nil:
		return kv.firstErr
	case accounted != kv.offered:
		return fmt.Errorf("%d requests resolved of %d offered", accounted, kv.offered)
	case transport != 0:
		return fmt.Errorf("%d transport errors", transport)
	case kv.rywViolations != 0:
		return fmt.Errorf("%d read-your-writes violations", kv.rywViolations)
	case kv.lateMax != 0:
		return fmt.Errorf("generator ran %v late", kv.lateMax)
	}
	return nil
}

func (kv *kvOverload) layer(p *sim.Proc, m metrics, s *section) error {
	ops := float64(s.ops)
	var attempts, shedArrive, shedServe, served, applies, stale int64
	depthPeak := 0
	for _, set := range kv.tier.Sets() {
		for _, rep := range set.Replicas {
			attempts += rep.Offered
			shedArrive += rep.ShedArrive
			shedServe += rep.ShedServe
			served += rep.Server().Calls
			applies += rep.Applies + rep.StaleApplies
			if rep.DepthPeak > depthPeak {
				depthPeak = rep.DepthPeak
			}
		}
	}
	var retries, denied int64
	for _, grp := range kv.groups {
		retries += grp.Stats.Retries
		denied += grp.Stats.BudgetDenied
		for j := 0; j < kvR; j++ {
			stale += int64(grp.Client(j).Stale())
		}
	}
	m["rpc.calls_per_op"] = float64(served) / ops
	m["rpc.stale_replies"] = float64(stale)
	m["serve.shed_arrive_frac"] = float64(shedArrive) / float64(attempts)
	m["serve.shed_serve_frac"] = float64(shedServe) / float64(attempts)
	m["serve.queue_depth_peak"] = float64(depthPeak)
	m["serve.retries_per_op"] = float64(retries) / ops
	m["serve.budget_denied_per_kop"] = float64(denied) / ops * 1e3

	// Hot-shard flatness: spread of the router's per-replica attempts on
	// shard 0 (the Zipf-hot one) as a share of their mean.
	hot := kv.tier.Set(0).Replicas
	lo, hi, sum := hot[0].Offered, hot[0].Offered, int64(0)
	for _, rep := range hot {
		if rep.Offered < lo {
			lo = rep.Offered
		}
		if rep.Offered > hi {
			hi = rep.Offered
		}
		sum += rep.Offered
	}
	m["replica.hot_spread"] = float64(hi-lo) * float64(len(hot)) / float64(sum)
	m["replica.applies_per_put"] = float64(applies) / float64(kv.puts)
	m["replica.apply_backlog_peak"] = float64(kv.backlogPeak)
	m["replica.ryw_fallback_frac"] = float64(kv.rywFallbacks) / float64(kv.gets)
	m["replica.ryw_violations"] = float64(kv.rywViolations)
	p999, _ := percentile(s.lat, 0.999)
	m["replica.virt_latency_p999_us"] = p999.Micros()
	m["loadgen.late_virt_us_max"] = kv.lateMax.Micros()

	// vRPC null call between the two front ends of the warmed cluster,
	// then the self times by subtraction: a KV get contains a null call
	// plus the handler's service time; a null call contains two one-way
	// VMMC messages.
	null, err := kv.probeNullCall(p)
	if err != nil {
		return err
	}
	m["rpc.probe_null_call_virt_us"] = null.Micros()
	m["rpc.self_virt_us"] = null.Micros() - 2*m["vmmc.probe_oneway_virt_us"]
	if gets := spanDurations(kv.e.rec.spans, "replica", "GetRYW"); len(gets) > 0 {
		m["replica.get_self_virt_us"] = (median(gets) - null - kvService).Micros()
	}
	return nil
}

// probeNullCall times an empty vRPC procedure served on the first front
// end and called from the second: median of 16 calls after one warm call.
// Export tags are node-wide; slot 0 is free in this direction (node 0 runs
// no tier server, and the second front end's own reply slots start at 24).
func (kv *kvOverload) probeNullCall(p *sim.Proc) (sim.Time, error) {
	const prog, vers, proc = 0x20000999, 1, 0
	sproc, err := kv.c.Nodes[0].NewProcess(p)
	if err != nil {
		return 0, err
	}
	srv, err := rpc.NewServer(p, sproc, 1)
	if err != nil {
		return 0, err
	}
	srv.Register(prog, vers, proc, func(*sim.Proc, *xdr.Decoder, *xdr.Encoder) uint32 { return xdr.AcceptSuccess })
	srv.Start()
	cproc, err := kv.c.Nodes[kvServers+1].NewProcess(p)
	if err != nil {
		return 0, err
	}
	cl, err := rpc.Dial(p, cproc, 0, 0)
	if err != nil {
		return 0, err
	}
	var samples []sim.Time
	for i := 0; i < 17; i++ {
		t0 := p.Now()
		if err := cl.Call(p, prog, vers, proc, nil, nil); err != nil {
			return 0, fmt.Errorf("null call: %w", err)
		}
		if i > 0 {
			samples = append(samples, p.Now()-t0)
		}
	}
	return median(samples), nil
}
