package replica

import (
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
)

// markdown is how long a replica stays routed-around after a timeout or
// unreachable failure; shedHold is how long it is deprioritized (not
// excluded) after shedding a request.
const (
	markdown = 2 * sim.Millisecond
	shedHold = 200 * sim.Microsecond
)

// repState is the router's view of one replica, built entirely from
// signals the client already has: its own outstanding attempts, the
// load hint on the last reply heard, and the time of the last failure.
type repState struct {
	outstanding int      // attempts in flight from this tier's clients
	depth       int      // queue depth from the last reply hint
	markedUntil sim.Time // route-around window after timeout/unreachable
	shedUntil   sim.Time // deprioritize window after an overload shed
}

// router picks a replica per attempt. Shared across every Group so the
// outstanding counts and hints aggregate tier-wide, which is what makes
// two-choice routing effective. Sim procs are engine-serialized, so the
// shared state needs no locking.
type router struct {
	cfg    RoutingConfig
	shards int
	r      int
	states []repState // [shard*r + replica]
	rng    uint64
}

func newRouter(cfg RoutingConfig, shards, r int) *router {
	return &router{
		cfg:    cfg,
		shards: shards,
		r:      r,
		states: make([]repState, shards*r),
		rng:    cfg.Seed ^ 0x9e3779b97f4a7c15,
	}
}

func (rt *router) state(g, j int) *repState { return &rt.states[g*rt.r+j] }

// score ranks a replica for selection; lower is better. Outstanding
// attempts dominate (they are current and local), hinted queue depth
// refines (it is fresher than nothing but one reply old), and a recent
// shed is a flat penalty while the hold lasts.
func (rt *router) score(now sim.Time, g, j int) int {
	st := rt.state(g, j)
	s := st.outstanding*100 + st.depth*10
	if now < st.shedUntil {
		s += 50
	}
	return s
}

// pick selects the replica for one attempt on shard g. exclude is the
// replica the previous attempt of the same request used (-1 for the
// first attempt): a retry after a failure must go elsewhere while any
// alternative exists. Marked-down replicas are skipped the same way,
// unless every candidate is marked — then markdown is ignored rather
// than failing the request with servers still reachable.
func (rt *router) pick(now sim.Time, g int, key uint32, exclude int) int {
	if rt.r == 1 {
		return 0
	}
	cands := make([]int, 0, rt.r)
	for j := 0; j < rt.r; j++ {
		if j == exclude || now < rt.state(g, j).markedUntil {
			continue
		}
		cands = append(cands, j)
	}
	if len(cands) == 0 {
		for j := 0; j < rt.r; j++ {
			if j != exclude {
				cands = append(cands, j)
			}
		}
	}
	if len(cands) == 1 {
		return cands[0]
	}
	if rt.cfg.Static {
		// Pure key hash over the surviving candidates: deterministic,
		// load-blind — the ablation baseline.
		h := uint64(key)
		h = (h ^ (h >> 16)) * 0x45d9f3b
		h = (h ^ (h >> 16)) * 0x45d9f3b
		return cands[int(h%uint64(len(cands)))]
	}
	// Two-choice: draw two distinct candidates, keep the better score.
	// Ties go to the first draw — rng-uniform, so equally-loaded
	// replicas share traffic instead of funneling to one index.
	a := cands[int(serve.Splitmix64(&rt.rng)%uint64(len(cands)))]
	b := a
	for b == a {
		b = cands[int(serve.Splitmix64(&rt.rng)%uint64(len(cands)))]
	}
	if rt.score(now, g, b) < rt.score(now, g, a) {
		return b
	}
	return a
}

// begin records an attempt going out to (g, j).
func (rt *router) begin(g, j int) { rt.state(g, j).outstanding++ }

// done records the attempt resolving (reply, rejection, or timeout).
func (rt *router) done(g, j int) { rt.state(g, j).outstanding-- }

// observe folds an attempt's outcome into the replica's state. hint is
// the connection's last load hint and fresh reports whether this
// attempt's reply carried it — a timed-out attempt heard nothing, so
// its connection's hint is stale and only the failure itself counts.
func (rt *router) observe(now sim.Time, g, j int, hint rpc.LoadHint, fresh bool, failed, shed bool) {
	st := rt.state(g, j)
	if fresh {
		st.depth = hint.Depth
	}
	if shed {
		st.shedUntil = now + shedHold
	}
	if failed {
		st.markedUntil = now + markdown
		// Whatever depth we believed is now unfalsifiable; forget it so
		// the replica re-enters rotation on even terms after markdown.
		st.depth = 0
	}
}
