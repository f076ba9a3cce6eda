package serve

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/rpc"
	"repro/internal/sim"
)

// genTriple is what the generator decided for one request.
type genTriple struct {
	key     uint32
	put     bool
	arrival sim.Time // relative to the start of the measured phase
}

// genGolden is the first 16 requests of the workload below, recorded
// from the serve and replica generators as they stood before the two
// were merged (they agreed on key and arrival; serve never drew puts).
// The sweeps' byte-identical artifacts depend on this sequence.
var genGolden = []genTriple{
	{6, false, 1637}, {7, false, 27465}, {0, false, 52826}, {9, true, 161019},
	{0, true, 268130}, {11, true, 274058}, {0, false, 336791}, {2, false, 351998},
	{3, false, 400553}, {3, true, 417884}, {2, false, 436568}, {3, false, 484934},
	{3, false, 522201}, {13, false, 570214}, {9, false, 588767}, {2, false, 923098},
}

// stubOutcome scripts the error a stub worker returns for request seq,
// cycling through every class the outcome switch distinguishes.
func stubOutcome(seq int) error {
	switch seq % 8 {
	case 1:
		return fmt.Errorf("stub: %w", rpc.ErrOverloaded)
	case 3:
		return fmt.Errorf("stub: %w", rpc.ErrDeadlineExceeded)
	case 4:
		return fmt.Errorf("stub: %w", rpc.ErrRPCTimeout)
	case 5:
		return ErrDeadlinePassed
	case 7:
		return errors.New("stub: untyped")
	}
	return nil
}

// runStubLoop drives the shared open-loop generator on a bare engine:
// two shards, two stub workers each, no cluster. Each worker runs its
// scripted attempt through a real Retrier (so LastSend and the send
// counters are live) and records what the generator handed it.
func runStubLoop(t *testing.T, putFrac float64) ([]genTriple, *Stats) {
	t.Helper()
	const shards, requests = 2, 64
	eng := sim.NewEngine()
	eng.VerifySkips()
	seen := make([]genTriple, requests)
	var stats *Stats
	eng.Go("loadgen-test", func(p *sim.Proc) {
		var start sim.Time
		var workers []Worker
		for i := 0; i < 2*shards; i++ {
			ret := NewRetrier(DefaultRetryPolicy(uint64(i)))
			workers = append(workers, Worker{Shard: i % shards, Retrier: ret,
				Do: func(wp *sim.Proc, req Request) error {
					seen[req.Seq] = genTriple{req.Key, req.Put, req.Arrival - start}
					return ret.Do(wp, req.Deadline, func(int) error {
						wp.Sleep(sim.Micros(30))
						return stubOutcome(req.Seq)
					})
				}})
		}
		var err error
		stats, err = NewOpenLoop(eng, shards).Run(p, "stub", 16, WorkloadConfig{
			Rate:      20000,
			Requests:  requests,
			Theta:     0.8,
			PutFrac:   putFrac,
			Seed:      0x51ab1e,
			OnMeasure: func(at sim.Time) { start = at },
		}, workers)
		if err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return seen, stats
}

// TestOpenLoopGeneratorContract pins the one open-loop generator both
// tiers share: the seeded (key, put, arrival) sequence, the put stream
// staying untouched at PutFrac 0, and the run-level invariants — every
// offered request resolves exactly once into the outcome its error
// class names, and both latency lists come back sorted.
func TestOpenLoopGeneratorContract(t *testing.T) {
	mixed, stats := runStubLoop(t, 0.2)
	for i, want := range genGolden {
		if mixed[i] != want {
			t.Errorf("request %d = %+v, want %+v", i, mixed[i], want)
		}
	}

	// PutFrac 0 is the pre-merge serve generator: same keys and arrivals,
	// no request flagged a put.
	gets, getStats := runStubLoop(t, 0)
	for i, want := range genGolden {
		want.put = false
		if gets[i] != want {
			t.Errorf("PutFrac=0 request %d = %+v, want %+v", i, gets[i], want)
		}
	}
	if getStats.Puts != 0 {
		t.Errorf("PutFrac=0 run counted %d puts", getStats.Puts)
	}

	if resolved := stats.OK + stats.Late + stats.Rejected + stats.Expired + stats.TimedOut + stats.Dropped + stats.Errors; stats.Offered != 64 || resolved != stats.Offered {
		t.Errorf("offered/resolved = %d/%d, want 64/64", stats.Offered, resolved)
	}
	// seq%8: 0,2,6 OK; 1 rejected; 3 expired; 4 timed out; 5 dropped; 7 untyped.
	if stats.OK != 24 || stats.Rejected != 8 || stats.Expired != 8 ||
		stats.TimedOut != 8 || stats.Dropped != 8 || stats.Errors != 8 || stats.Late != 0 {
		t.Errorf("outcomes = %+v, want 24 OK and 8 each of rejected/expired/timed-out/dropped/errors", stats)
	}
	var puts, perShard int64
	for _, g := range mixed {
		if g.put {
			puts++
		}
	}
	for _, n := range stats.ShardOffered {
		perShard += n
	}
	if stats.Puts != puts || puts == 0 || perShard != stats.Offered {
		t.Errorf("puts = %d (workers saw %d), shard split sums to %d of %d", stats.Puts, puts, perShard, stats.Offered)
	}
	if len(stats.LatOK) != int(stats.OK) || len(stats.LatShed) != int(stats.Rejected+stats.Expired) {
		t.Errorf("latency samples = %d OK / %d shed, want %d / %d",
			len(stats.LatOK), len(stats.LatShed), stats.OK, stats.Rejected+stats.Expired)
	}
	for name, lat := range map[string][]sim.Time{"LatOK": stats.LatOK, "LatShed": stats.LatShed} {
		if !sort.SliceIsSorted(lat, func(i, j int) bool { return lat[i] < lat[j] }) {
			t.Errorf("%s not sorted: %v", name, lat)
		}
	}
	// Retriable outcomes (overload, timeout) retry until the budget denies
	// them, so sends exceed offered by exactly the retries.
	if stats.Retries == 0 || stats.Sends != stats.Offered+stats.Retries {
		t.Errorf("sends/retries = %d/%d for %d offered", stats.Sends, stats.Retries, stats.Offered)
	}
}
