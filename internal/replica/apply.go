package replica

import (
	"errors"
	"fmt"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// applyFailCutoff is how many consecutive lost applies (timeout or
// unreachable) the primary tolerates before declaring a follower dead
// and dropping its replication stream. Version tags make the stream
// safe to truncate: a revived follower is stale, not corrupt, and
// read-your-writes is preserved by the client's primary fallback.
const applyFailCutoff = 3

// applyItem is one queued follower update.
type applyItem struct {
	key uint32
	ver uint64
	val []byte
}

// applyQueue is the per-(shard, follower) asynchronous replication
// queue, drained by an applier daemon on the primary's process.
type applyQueue struct {
	target *Replica
	items  []applyItem
	cond   *sim.Cond
}

// ApplyBacklog sums the queued follower updates for shard g (tests).
func (t *Tier) ApplyBacklog(g int) int {
	total := 0
	for _, q := range t.applies {
		if q.target.Shard == g {
			total += len(q.items)
		}
	}
	return total
}

// enqueueApplies fans a committed put out to the shard's follower
// queues. Called from the primary's put handler; the reply to the
// client does not wait for any of this.
func (t *Tier) enqueueApplies(set *ReplicaSet, key uint32, ver uint64, val []byte) {
	if t.cfg.R <= 1 {
		return
	}
	base := set.Shard * (t.cfg.R - 1)
	for j := 1; j < t.cfg.R; j++ {
		q := t.applies[base+(j-1)]
		if q.target.Dead {
			continue
		}
		q.items = append(q.items, applyItem{key: key, ver: ver, val: val})
		q.cond.Signal()
	}
}

// startAppliers dials one apply connection per (shard, follower) from
// the primary's process and starts the applier daemons. The dial and a
// warm apply run at build time so first-contact import costs never land
// in a measured phase.
func (t *Tier) startAppliers(p *sim.Proc) error {
	if t.cfg.R <= 1 {
		return nil
	}
	for g := 0; g < t.cfg.Shards; g++ {
		set := t.sets[g]
		primary := set.Replicas[0]
		for j := 1; j < t.cfg.R; j++ {
			follower := set.Replicas[j]
			conn, err := rpc.Dial(p, primary.proc, follower.Node, t.applySlot(j))
			if err != nil {
				return fmt.Errorf("replica: apply dial s%dr%d: %w", g, j, err)
			}
			// Warm with a version-1 apply of a key the shard owns: the
			// follower ignores it as stale, the reply window import is
			// paid here.
			warmKey := uint32(g % t.cfg.Keys)
			if err := applyCall(p, conn, 0, warmKey, 1, set.Replicas[0].store[warmKey].val); err != nil {
				return fmt.Errorf("replica: apply warm s%dr%d: %w", g, j, err)
			}
			q := &applyQueue{target: follower, cond: sim.NewCond(t.eng)}
			t.applies = append(t.applies, q)
			t.runApplier(g, j, conn, q)
		}
	}
	return nil
}

// applyRetryGap paces re-sends after an overload shed inside one
// apply's deadline window. Timeouts are not re-sent: the timed-out call
// already consumed the whole window waiting.
const applyRetryGap = 20 * sim.Microsecond

// runApplier drains one follower's replication queue as a daemon on the
// primary's process. Each apply gets its own deadline; sheds are
// re-sent within the window and skipped past it (best-effort
// replication — version tags keep later applies correct), while
// applyFailCutoff consecutive timeouts mark the follower dead and stop
// the stream. The loop is deliberately not a serve.Retrier: the cutoff
// needs the raw per-attempt error, which the budget loop would fold
// into its own deadline verdict.
func (t *Tier) runApplier(g, j int, conn *rpc.Client, q *applyQueue) {
	t.eng.Go(fmt.Sprintf("replica:apply:s%dr%d", g, j), func(p *sim.Proc) {
		p.SetDaemon(true)
		failStreak := 0
		for {
			for len(q.items) == 0 {
				q.cond.Wait(p)
			}
			it := q.items[0]
			q.items = q.items[1:]
			if q.target.Dead {
				continue
			}
			deadline := p.Now() + t.cfg.ApplyDeadline
			var err error
			for {
				err = applyCall(p, conn, deadline, it.key, it.ver, it.val)
				if !errors.Is(err, rpc.ErrOverloaded) || p.Now()+applyRetryGap >= deadline {
					break
				}
				p.Sleep(applyRetryGap)
			}
			switch {
			case err == nil:
				failStreak = 0
			case errors.Is(err, rpc.ErrRPCTimeout), errors.Is(err, vmmc.ErrNodeUnreachable):
				q.target.ApplyFails++
				failStreak++
				if failStreak >= applyFailCutoff {
					q.target.Dead = true
					q.items = nil
				}
			default:
				// Shed or expired under follower overload: skip. The
				// follower stays consistent (stale at worst) and the
				// client's version check covers the read side.
				q.target.ApplySkipped++
				failStreak = 0
			}
		}
	})
}

// applyCall issues one ProcApply RPC. deadline 0 means no deadline
// (used only by the warm call at build time).
func applyCall(p *sim.Proc, conn *rpc.Client, deadline sim.Time, key uint32, ver uint64, val []byte) error {
	return conn.CallDeadline(p, deadline, ProgKV, VersKV, ProcApply,
		func(e *xdr.Encoder) { e.PutUint32(key); e.PutUint64(ver); e.PutOpaque(val) },
		nil)
}
