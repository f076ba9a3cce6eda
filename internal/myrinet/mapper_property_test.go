package myrinet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Property: on arbitrary random switch trees, the mapper discovers a
// working route between every pair of hosts, and every discovered route
// actually reaches its destination when walked.
func TestMappingRandomTreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := New(e, hw.Default())

		nsw := 1 + rng.Intn(4)
		switches := make([]*Switch, nsw)
		freePorts := make([][]int, nsw)
		for i := range switches {
			switches[i] = n.AddSwitch(8)
			for p := 0; p < 8; p++ {
				freePorts[i] = append(freePorts[i], p)
			}
		}
		takePort := func(sw int) int {
			i := rng.Intn(len(freePorts[sw]))
			p := freePorts[sw][i]
			freePorts[sw] = append(freePorts[sw][:i], freePorts[sw][i+1:]...)
			return p
		}
		// Tree: connect switch i to a random earlier switch.
		for i := 1; i < nsw; i++ {
			parent := rng.Intn(i)
			if len(freePorts[parent]) == 0 || len(freePorts[i]) == 0 {
				return true // degenerate; skip this case
			}
			if err := n.ConnectSwitches(switches[parent], takePort(parent), switches[i], takePort(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Hosts on random switches.
		nhosts := 2 + rng.Intn(4)
		for h := 0; h < nhosts; h++ {
			sw := rng.Intn(nsw)
			if len(freePorts[sw]) == 0 {
				continue
			}
			nic := n.AddNIC()
			if err := n.AttachNIC(nic, switches[sw], takePort(sw)); err != nil {
				t.Fatal(err)
			}
		}
		hosts := n.NICs()
		if len(hosts) < 2 {
			return true
		}

		tables := mapFabric(t, e, n, nsw+1, 20*sim.Microsecond)
		for _, src := range hosts {
			for _, dst := range hosts {
				if src.ID == dst.ID {
					continue
				}
				route, ok := tables[src.ID][dst.ID]
				if !ok {
					t.Logf("seed %d: no route %d->%d (%d switches, %d hosts)", seed, src.ID, dst.ID, nsw, len(hosts))
					return false
				}
				got, _, _, reason := n.walk(src, route, nil)
				if got == nil || got.ID != dst.ID {
					t.Logf("seed %d: route %d->%d = %v invalid: %s", seed, src.ID, dst.ID, route, reason)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
