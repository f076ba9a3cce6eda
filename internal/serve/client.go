package serve

import (
	"errors"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// RetryPolicy is the client-side overload response: exponential backoff
// from retryBase to retryMax with deterministic seeded jitter, gated by a
// per-connection retry budget so retries cannot amplify overload into a
// retry storm. Only the jitter stream's seed varies between connections.
//
// The budget is a token bucket in the gRPC retry-throttling style:
// tokens start at retryBudget, every fresh call earns retryRatio tokens
// (capped at retryBudget), every retry spends one. Under sustained
// rejection the bucket drains and retries stop, bounding total sends for
// N offered calls at N*(1+retryRatio) + retryBudget regardless of how
// long the overload lasts.
type RetryPolicy struct {
	Seed uint64 // jitter stream seed
}

// The retry policy's constants mirror production retry-throttling
// defaults, scaled to the tier's microsecond RTTs.
const (
	retryBase   = 50 * sim.Microsecond  // first backoff step
	retryMax    = 800 * sim.Microsecond // backoff cap
	retryBudget = 10                    // token bucket capacity and initial fill
	retryRatio  = 0.1                   // tokens earned per fresh call
)

// DefaultRetryPolicy returns the retry policy with the given jitter seed.
func DefaultRetryPolicy(seed uint64) RetryPolicy {
	return RetryPolicy{Seed: seed}
}

// ConnStats counts a connection's send activity.
type ConnStats struct {
	Sends        int64    // RPCs put on the wire (fresh + retries)
	Retries      int64    // re-sends after a retriable failure
	BudgetDenied int64    // retries suppressed by an empty token bucket
	Backoff      sim.Time // total time slept in backoff
}

// Retrier runs the budgeted-retry loop around an arbitrary RPC attempt
// closure. It is the policy half of a Conn, split out so layers that
// re-target attempts between tries — the replica router sends each
// retry to a different replica — can reuse the exact token-bucket and
// backoff machinery. Not safe for concurrent use by multiple sim procs.
type Retrier struct {
	tokens   float64
	rng      uint64
	lastSend sim.Time // start of the most recent send attempt
	Stats    ConnStats
}

// NewRetrier builds a Retrier with a full token bucket.
func NewRetrier(pol RetryPolicy) *Retrier {
	return &Retrier{tokens: retryBudget, rng: pol.Seed}
}

// LastSend reports when the most recent RPC attempt began — the anchor
// for fail-fast latency (how quickly the final attempt resolved,
// excluding earlier retries' backoff).
func (r *Retrier) LastSend() sim.Time { return r.lastSend }

// Conn is one vRPC connection to a shard, wrapped with the retry
// policy. Not safe for concurrent use by multiple sim procs.
type Conn struct {
	rc *rpc.Client
	*Retrier
}

// DialShard opens connection conn from client-node index cIdx to shard
// sIdx, using the given process on that client node.
func (t *Tier) DialShard(p *sim.Proc, proc *vmmc.Process, cIdx, sIdx, conn int, pol RetryPolicy) (*Conn, error) {
	rc, err := rpc.Dial(p, proc, t.cfg.ShardNodes[sIdx], t.slotFor(cIdx, sIdx, conn))
	if err != nil {
		return nil, err
	}
	return &Conn{rc: rc, Retrier: NewRetrier(pol)}, nil
}

// Retriable reports whether the failure may be retried: overload
// rejections (the server asked for backoff), timeouts (the reply may be
// lost; at-least-once GET semantics are safe), and unreachable nodes
// (another replica may still answer). Server-side deadline expiry is
// final — a retry would start even later.
func Retriable(err error) bool {
	return errors.Is(err, rpc.ErrOverloaded) || errors.Is(err, rpc.ErrRPCTimeout) ||
		errors.Is(err, vmmc.ErrNodeUnreachable)
}

// Do runs one budgeted-retry RPC loop around the call closure. The
// closure receives the zero-based attempt number, so a caller that
// selects a target per attempt (replica failover) can re-route retries.
func (r *Retrier) Do(p *sim.Proc, deadline sim.Time, call func(attempt int) error) error {
	r.tokens += retryRatio
	if r.tokens > retryBudget {
		r.tokens = retryBudget
	}
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		if deadline != 0 && p.Now() >= deadline {
			return ErrDeadlinePassed
		}
		r.Stats.Sends++
		r.lastSend = p.Now()
		err := call(attempt)
		if err == nil || !Retriable(err) {
			return err
		}
		if r.tokens < 1 {
			r.Stats.BudgetDenied++
			return err
		}
		r.tokens--
		r.Stats.Retries++
		// Deterministic decorrelated jitter: sleep uniformly in
		// [backoff/2, backoff), then double toward the cap.
		d := backoff/2 + sim.Time(unit(&r.rng)*float64(backoff/2))
		r.Stats.Backoff += d
		p.Sleep(d)
		if backoff < retryMax {
			backoff *= 2
			if backoff > retryMax {
				backoff = retryMax
			}
		}
	}
}

// do adapts the Retrier loop to the Conn's fixed-target closures.
func (c *Conn) do(p *sim.Proc, deadline sim.Time, call func() error) error {
	return c.Do(p, deadline, func(int) error { return call() })
}

// Get fetches a key with the connection's retry policy. deadline 0
// means no deadline (and no client-side timeout).
func (c *Conn) Get(p *sim.Proc, key uint32, deadline sim.Time) ([]byte, error) {
	var val []byte
	var found bool
	err := c.do(p, deadline, func() error {
		val, found = nil, false
		return c.rc.CallDeadline(p, deadline, ProgKV, VersKV, ProcGet,
			func(e *xdr.Encoder) { e.PutUint32(key) },
			func(d *xdr.Decoder) error {
				f, err := d.Uint32()
				if err != nil {
					return err
				}
				if f == 0 {
					return nil
				}
				v, err := d.Opaque(rpc.SlotBytes)
				if err != nil {
					return err
				}
				val, found = v, true
				return nil
			})
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	return val, nil
}

// Put stores a key with the connection's retry policy.
func (c *Conn) Put(p *sim.Proc, key uint32, val []byte, deadline sim.Time) error {
	return c.do(p, deadline, func() error {
		return c.rc.CallDeadline(p, deadline, ProgKV, VersKV, ProcPut,
			func(e *xdr.Encoder) { e.PutUint32(key); e.PutOpaque(val) },
			nil)
	})
}
