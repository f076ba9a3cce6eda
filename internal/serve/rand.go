package serve

import "math"

// Splitmix64 is the repo's standard generator for seeded workload
// randomness: identical sequences on every run and platform, which is
// what lets the goldens demand byte identity of every sweep cell.
func Splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit draws from [0, 1) with 53 bits of precision.
func unit(s *uint64) float64 {
	return float64(Splitmix64(s)>>11) / (1 << 53)
}

// expDraw draws an exponential variate with the given mean by inverse
// CDF — the interarrival law of an open-loop Poisson process.
func expDraw(s *uint64, mean float64) float64 {
	return -mean * math.Log(1-unit(s))
}

// zipfTable is a cumulative-weight table for rank-ordered Zipf sampling:
// P(key k) proportional to 1/(k+1)^theta. theta 0 is uniform; larger
// theta concentrates traffic on low-numbered keys (and, with keys
// striped across shards modulo the shard count, on low-numbered shards).
type zipfTable struct{ cum []float64 }

func newZipfTable(keys int, theta float64) *zipfTable {
	cum := make([]float64, keys)
	total := 0.0
	for k := 0; k < keys; k++ {
		total += 1 / math.Pow(float64(k+1), theta)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &zipfTable{cum: cum}
}

// draw samples a key rank.
func (z *zipfTable) draw(s *uint64) int {
	u := unit(s)
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
