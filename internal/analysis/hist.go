package analysis

import (
	"math/bits"
	"sort"
)

// logHist is a log-linear histogram of nanosecond durations: exact bins
// for 0..7 ns, then 8 sub-bins per power of two (3 mantissa bits), giving
// a worst-case relative error of 12.5% on reported percentiles. All math
// is integer, so percentiles are deterministic.
type logHist struct {
	bins  [8 + 8*61]int64
	total int64
}

func histBin(ns int64) int {
	if ns < 8 {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	o := bits.Len64(uint64(ns)) - 1 // octave, >= 3
	sub := (ns >> uint(o-3)) & 7    // next 3 mantissa bits
	return 8 + (o-3)*8 + int(sub)
}

// histUpper returns the largest duration a bin covers, the value
// percentile lookups report.
func histUpper(bin int) int64 {
	if bin < 8 {
		return int64(bin)
	}
	bin -= 8
	o := bin/8 + 3
	sub := int64(bin % 8)
	return (8+sub+1)<<uint(o-3) - 1
}

func (h *logHist) add(ns int64) {
	h.bins[histBin(ns)]++
	h.total++
}

func (h *logHist) merge(o *logHist) {
	for i, v := range o.bins {
		h.bins[i] += v
	}
	h.total += o.total
}

// percentile returns the p-th percentile (p in 1..100) as the upper bound
// of the bin the rank lands in; 0 when the histogram is empty.
func (h *logHist) percentile(p int) int64 {
	if h.total == 0 {
		return 0
	}
	rank := (h.total*int64(p) + 99) / 100 // ceil
	var cum int64
	for i, v := range h.bins {
		cum += v
		if cum >= rank {
			return histUpper(i)
		}
	}
	return histUpper(len(h.bins) - 1)
}

// depthPercentiles computes the time-weighted median and maximum queue
// depth from a depth -> nanoseconds-at-depth map.
func depthPercentiles(depthNS map[int]int64) (p50, max int) {
	if len(depthNS) == 0 {
		return 0, 0
	}
	depths := make([]int, 0, len(depthNS))
	var total int64
	for d, ns := range depthNS {
		if ns <= 0 {
			continue
		}
		depths = append(depths, d)
		total += ns
		if d > max {
			max = d
		}
	}
	if total == 0 {
		return 0, max
	}
	sort.Ints(depths)
	half := (total + 1) / 2
	var cum int64
	for _, d := range depths {
		cum += depthNS[d]
		if cum >= half {
			return d, max
		}
	}
	return depths[len(depths)-1], max
}

// bucketSet holds per-class busy time in fixed-width virtual-time
// buckets. When a span lands past the last bucket, every class's buckets
// fold pairwise and the width doubles — memory stays bounded at
// maxBuckets entries per class for any run length, and folding is
// deterministic.
type bucketSet struct {
	widthNS    int64
	maxBuckets int
	classes    []*classState // every class that ever allocated buckets
}

func newBucketSet(widthNS int64, maxBuckets int) bucketSet {
	return bucketSet{widthNS: widthNS, maxBuckets: maxBuckets}
}

// classBuckets is stored on classState lazily.
type classBuckets struct {
	busyNS []int64
}

func (b *bucketSet) fold() {
	b.widthNS *= 2
	for _, cl := range b.classes {
		buf := cl.buckets.busyNS
		n := (len(buf) + 1) / 2
		for i := 0; i < n; i++ {
			v := buf[2*i]
			if 2*i+1 < len(buf) {
				v += buf[2*i+1]
			}
			buf[i] = v
		}
		cl.buckets.busyNS = buf[:n]
	}
}

// addBusy credits busy time over [start, end) to cl's buckets, splitting
// across bucket boundaries.
func (cl *classState) addBusy(b *bucketSet, start, end int64) {
	if end <= start {
		return
	}
	if cl.buckets.busyNS == nil {
		b.classes = append(b.classes, cl)
	}
	for (end-1)/b.widthNS >= int64(b.maxBuckets) {
		b.fold()
	}
	for t := start; t < end; {
		idx := t / b.widthNS
		bEnd := (idx + 1) * b.widthNS
		if bEnd > end {
			bEnd = end
		}
		for int64(len(cl.buckets.busyNS)) <= idx {
			cl.buckets.busyNS = append(cl.buckets.busyNS, 0)
		}
		cl.buckets.busyNS[idx] += bEnd - t
		t = bEnd
	}
}

// peakFrac returns the largest per-bucket busy fraction of a class,
// averaged over its instances (busyNS / (width * instances)). The final,
// possibly partial bucket is clipped to the run window so a short tail
// cannot dilute the peak.
func (b *bucketSet) peakFrac(cl *classState, now int64) float64 {
	if len(cl.buckets.busyNS) == 0 || len(cl.comps) == 0 {
		return 0
	}
	inst := int64(len(cl.comps))
	var peak float64
	for i, busy := range cl.buckets.busyNS {
		width := b.widthNS
		if rem := now - int64(i)*b.widthNS; rem < width {
			if rem <= 0 {
				break
			}
			width = rem
		}
		if f := float64(busy) / float64(width*inst); f > peak {
			peak = f
		}
	}
	if peak > 1 {
		peak = 1
	}
	return peak
}
