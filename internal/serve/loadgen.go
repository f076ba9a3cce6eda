package serve

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// WorkloadConfig describes one open-loop run against a serving tier —
// this package's sharded tier or the replicated one built on it.
type WorkloadConfig struct {
	Rate     float64 // offered requests/second, Poisson arrivals
	Requests int     // total offered requests
	Theta    float64 // Zipf exponent over keys (0 = uniform)
	// PutFrac is the fraction of requests that are writes. serve.Tier
	// issues every request as a Get; the replicated tier uses the write
	// mix to exercise its primary/apply path and read-your-writes check.
	PutFrac  float64
	Deadline sim.Time // per-request budget, measured from arrival
	// EdgeLatency models the internet hop between the user and the
	// Ethernet-side front end, one way. It delays the request before it
	// reaches a connection and is added once more to the user-perceived
	// latency for the response path.
	EdgeLatency sim.Time
	// Seed drives arrivals, keys and the write mix, and seeds each
	// connection's retry jitter.
	Seed uint64
	// OnMeasure, when set, is invoked once dialing and warm-up complete,
	// just before the open-loop generator starts. Fault cells use it to
	// script an outage or a replica kill relative to the measured phase —
	// first contact costs milliseconds of setup, so absolute scheduling
	// would land faults in the warm-up instead of the stream.
	OnMeasure func(start sim.Time)
}

// Stats is the outcome of an open-loop run. A request resolves exactly
// once, into one of the outcome counters.
type Stats struct {
	Offered  int64
	OK       int64 // served within its deadline
	Late     int64 // served, but past its deadline (not goodput)
	Rejected int64 // typed ErrOverloaded after retries/budget
	Expired  int64 // typed server-side deadline expiry
	TimedOut int64 // client-side timeout (no verdict heard)
	Dropped  int64 // expired client-side before it could be sent
	Errors   int64 // anything else (must stay zero)

	Sends        int64 // RPCs on the wire, fresh + retries
	Retries      int64
	BudgetDenied int64

	Puts         int64   // writes among Offered
	ShardOffered []int64 // Offered split by the shard each key maps to

	LatOK []sim.Time // user-perceived latency of OK requests (sorted)
	// LatShed is the time from a shed request's final send attempt to
	// its typed rejection (sorted) — the fail-fast metric. A typed
	// verdict arrives in roughly an RTT where a timeout burns the whole
	// deadline plus the reply grace; queue wait and earlier retries'
	// backoff are policy-driven and excluded.
	LatShed []sim.Time
}

// Request is one generated user request.
type Request struct {
	Key      uint32
	Put      bool
	Seq      int // generation index
	Arrival  sim.Time
	Deadline sim.Time // 0 when the workload has no deadline
}

// Worker is one connection worker of an open-loop run: Do resolves a
// request over the worker's connection(s) to Shard, driving the
// embedded Retrier, which the loop reads for LastSend and send counts.
type Worker struct {
	Shard int
	Do    func(wp *sim.Proc, req Request) error
	*Retrier
}

// dispatchQueue is the per-shard client-side queue between the arrival
// generator and the connection workers.
type dispatchQueue struct {
	items  []Request
	cond   *sim.Cond
	closed bool
}

// OpenLoop is the client side of one open-loop run: the per-shard
// dispatch queues a Poisson arrival generator feeds and the workers
// drain. Open loop means arrivals never slow down because the system is
// busy — exactly the regime where overload turns metastable without
// admission control.
type OpenLoop struct {
	eng    *sim.Engine
	queues []*dispatchQueue
}

// NewOpenLoop builds the dispatch queues for a tier with the given
// shard count.
func NewOpenLoop(eng *sim.Engine, shards int) *OpenLoop {
	l := &OpenLoop{eng: eng, queues: make([]*dispatchQueue, shards)}
	for i := range l.queues {
		l.queues[i] = &dispatchQueue{cond: sim.NewCond(eng)}
	}
	return l
}

// Run drives the workload over already dialed and warmed workers: keys
// are Zipf draws over [0, keys) striped across shards modulo the shard
// count, and each worker drains its shard's queue. The orchestrating
// proc p blocks until every offered request resolves. label prefixes
// the worker proc names and errors with the calling tier's package.
//
// The seeded streams are part of the contract that keeps sweep
// artifacts byte-identical: arrivals draw from Seed+0x5eed, keys from
// Seed^0xface, and the put mix from Seed^0xbead — which is consumed
// only when PutFrac > 0.
func (l *OpenLoop) Run(p *sim.Proc, label string, keys int, w WorkloadConfig, workers []Worker) (*Stats, error) {
	if w.Rate <= 0 || w.Requests <= 0 {
		return nil, fmt.Errorf("%s: workload needs positive rate and request count", label)
	}
	shards := len(l.queues)
	stats := &Stats{ShardOffered: make([]int64, shards)}
	zipf := newZipfTable(keys, w.Theta)
	if w.OnMeasure != nil {
		w.OnMeasure(p.Now())
	}

	// Connection workers.
	resolved := int64(0)
	doneCond := sim.NewCond(l.eng)
	for wi, wk := range workers {
		wk := wk
		q := l.queues[wk.Shard]
		l.eng.Go(fmt.Sprintf("%s:worker:%d", label, wi), func(wp *sim.Proc) {
			for {
				for len(q.items) == 0 && !q.closed {
					q.cond.Wait(wp)
				}
				if len(q.items) == 0 {
					return
				}
				req := q.items[0]
				q.items = q.items[1:]
				resolve(wp, wk, req, w.EdgeLatency, stats)
				resolved++
				doneCond.Broadcast()
			}
		})
	}

	// Open-loop Poisson generator.
	rng := w.Seed + 0x5eed
	keyRng := w.Seed ^ 0xface
	opRng := w.Seed ^ 0xbead
	next := p.Now()
	for i := 0; i < w.Requests; i++ {
		next += sim.Time(expDraw(&rng, float64(sim.Second)/w.Rate))
		if next > p.Now() {
			p.Sleep(next - p.Now())
		}
		key := uint32(zipf.draw(&keyRng))
		shard := int(key) % shards
		put := w.PutFrac > 0 && unit(&opRng) < w.PutFrac
		var dl sim.Time
		if w.Deadline > 0 {
			dl = p.Now() + w.Deadline
		}
		stats.Offered++
		stats.ShardOffered[shard]++
		if put {
			stats.Puts++
		}
		q := l.queues[shard]
		q.items = append(q.items, Request{Key: key, Put: put, Seq: i, Arrival: p.Now(), Deadline: dl})
		q.cond.Signal()
	}
	for _, q := range l.queues {
		q.closed = true
		q.cond.Broadcast()
	}
	for resolved < int64(w.Requests) {
		doneCond.Wait(p)
	}

	for _, wk := range workers {
		stats.Sends += wk.Stats.Sends
		stats.Retries += wk.Stats.Retries
		stats.BudgetDenied += wk.Stats.BudgetDenied
	}
	sort.Slice(stats.LatOK, func(i, j int) bool { return stats.LatOK[i] < stats.LatOK[j] })
	sort.Slice(stats.LatShed, func(i, j int) bool { return stats.LatShed[i] < stats.LatShed[j] })
	return stats, nil
}

// resolve runs one request on a worker and records its outcome.
func resolve(wp *sim.Proc, wk Worker, req Request, edge sim.Time, stats *Stats) {
	if req.Deadline != 0 && wp.Now() >= req.Deadline {
		// Too late before the request even reached a connection: fail
		// it locally, free the connection for younger requests.
		stats.Dropped++
		return
	}
	if edge > 0 {
		wp.Sleep(edge) // user -> front end
	}
	err := wk.Do(wp, req)
	// The response's return hop delays the user, not the connection.
	lat := wp.Now() - req.Arrival + edge
	switch {
	case err == nil:
		if req.Deadline != 0 && wp.Now()+edge > req.Deadline {
			stats.Late++
			return
		}
		stats.OK++
		stats.LatOK = append(stats.LatOK, lat)
	case errors.Is(err, rpc.ErrOverloaded):
		stats.Rejected++
		stats.LatShed = append(stats.LatShed, wp.Now()-wk.LastSend())
	case errors.Is(err, rpc.ErrDeadlineExceeded):
		stats.Expired++
		stats.LatShed = append(stats.LatShed, wp.Now()-wk.LastSend())
	case errors.Is(err, rpc.ErrRPCTimeout):
		stats.TimedOut++
	case errors.Is(err, ErrDeadlinePassed):
		stats.Dropped++
	default:
		stats.Errors++
	}
}

// RunOpenLoop dials and warms Conns connections per (client node,
// shard) — first contact pays the ether-daemon import; that belongs to
// setup, not to the measured phase — and drives the workload through
// them as Gets. The dispatch queues stay visible to the deadlock
// wrapper for the duration of the run.
func (t *Tier) RunOpenLoop(p *sim.Proc, w WorkloadConfig) (*Stats, error) {
	shards := len(t.cfg.ShardNodes)
	var workers []Worker
	for cIdx, node := range t.cfg.ClientNodes {
		proc, err := t.cluster.Nodes[node].NewProcess(p)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, proc)
		for sIdx := 0; sIdx < shards; sIdx++ {
			for k := 0; k < t.cfg.Conns; k++ {
				pol := RetryPolicy{Seed: w.Seed ^ (uint64(cIdx)<<40 | uint64(sIdx)<<20 | uint64(k))}
				conn, err := t.DialShard(p, proc, cIdx, sIdx, k, pol)
				if err != nil {
					return nil, err
				}
				if _, err := conn.Get(p, uint32(sIdx), 0); err != nil {
					return nil, fmt.Errorf("serve: warm call: %w", err)
				}
				workers = append(workers, Worker{Shard: sIdx, Retrier: conn.Retrier,
					Do: func(wp *sim.Proc, req Request) error {
						_, err := conn.Get(wp, req.Key, req.Deadline)
						return err
					}})
			}
		}
	}
	for _, sh := range t.shards {
		sh.srv.Calls = 0 // exclude warm calls from served counts
	}
	t.loop = NewOpenLoop(t.eng, shards)
	defer func() { t.loop = nil }()
	stats, err := t.loop.Run(p, "serve", t.cfg.Keys, w, workers)
	if err != nil {
		return nil, err
	}
	for i, sh := range t.shards {
		sh.Offered += stats.ShardOffered[i]
	}
	t.EmitUsage()
	return stats, nil
}

// TransportErrors sums send and import failures across the given
// processes — every one a tier created, servers and client front ends —
// for the "zero victim errors" check of fault and kill cells.
func TransportErrors(procs []*vmmc.Process) int64 {
	total := int64(0)
	for _, pr := range procs {
		e := pr.Errors()
		total += e.SendFailures + e.ImportFailures
	}
	return total
}

// TransportErrors sums send and import failures across every process
// the tier created.
func (t *Tier) TransportErrors() int64 { return TransportErrors(t.procs) }
