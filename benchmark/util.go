package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// splitmix64 is the repository's standard seeded generator: identical
// sequences on every run and platform.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit draws from [0, 1).
func unit(s *uint64) float64 { return float64(splitmix64(s)>>11) / (1 << 53) }

// fill writes seeded bytes into b.
func fill(s *uint64, b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := splitmix64(s)
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// zipf is a cumulative-weight table for rank-ordered Zipf sampling:
// P(key k) is proportional to 1/(k+1)^theta.
type zipf []float64

func newZipf(keys int, theta float64) zipf {
	cum := make(zipf, keys)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), theta)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return cum
}

func (z zipf) draw(s *uint64) int {
	u := unit(s)
	lo, hi := 0, len(z)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fanOut runs fn(i, proc) in n fresh simulation processes and parks p until
// all have returned. It reports the first error any of them returned.
func fanOut(p *sim.Proc, name string, n int, fn func(i int, fp *sim.Proc) error) error {
	eng := p.Engine()
	done := sim.NewCond(eng)
	left := n
	var first error
	for i := 0; i < n; i++ {
		i := i
		eng.Go(fmt.Sprintf("%s:%d", name, i), func(fp *sim.Proc) {
			defer func() { left--; done.Broadcast() }()
			if err := fn(i, fp); err != nil && first == nil {
				first = fmt.Errorf("%s %d: %w", name, i, err)
			}
		})
	}
	for left > 0 {
		done.Wait(p)
	}
	return first
}

// barrier parks processes until target of them have arrived, then
// releases the generation together. Reusable across steps.
type barrier struct {
	c         *sim.Cond
	n, target int
	gen       int
}

func newBarrier(eng *sim.Engine, target int) *barrier {
	return &barrier{c: sim.NewCond(eng), target: target}
}

func (b *barrier) await(p *sim.Proc) {
	gen := b.gen
	if b.n++; b.n == b.target {
		b.n = 0
		b.gen++
		b.c.Broadcast()
		return
	}
	for gen == b.gen {
		b.c.Wait(p)
	}
}

// median sorts the samples in place and returns their nearest-rank median.
func median(t []sim.Time) sim.Time {
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	p50, _ := percentile(t, 0.50)
	return p50
}
