package vmmc

import (
	"fmt"

	"repro/internal/lanai"
)

// TLB is the LANai's per-process two-way set-associative software TLB
// (§4.5): it maps send-buffer virtual pages to physical frames so the LCP
// can chunk long sends without host involvement. With 2048 entries it
// covers 8 MB of address space at 4 KB pages. A miss raises a host
// interrupt; the driver refills up to 32 translations per interrupt and
// locks the pages while their translations are cached.
type TLB struct {
	sets    [][2]tlbEntry
	lru     []uint8 // which way to evict next, per set
	sramOff int
}

type tlbEntry struct {
	valid bool
	vpage uint64
	frame int
}

const (
	// TLBEntries gives 8 MB of reach at 4 KB pages (§4.5).
	TLBEntries = 2048
	// TLBRefillBatch translations are inserted per miss interrupt (§4.5).
	TLBRefillBatch = 32
	tlbEntryBytes  = 8
)

func newTLB(sram *lanai.SRAM, pid, entries int) (*TLB, error) {
	if entries <= 0 {
		entries = TLBEntries
	}
	// Floor at twice the refill batch: with fewer sets than the batch
	// covers, a refill's own later inserts can evict the faulting page
	// before the stalled send resumes, and the transfer refaults the
	// same page forever. 2*batch gives every page of one batch its own
	// set, so the faulting translation always survives its refill.
	if entries < 2*TLBRefillBatch {
		entries = 2 * TLBRefillBatch
	}
	entries &^= 1 // two-way sets need an even entry count
	off, err := sram.Alloc(entries*tlbEntryBytes, fmt.Sprintf("tlb:%d", pid))
	if err != nil {
		return nil, err
	}
	nsets := entries / 2
	return &TLB{
		sets:    make([][2]tlbEntry, nsets),
		lru:     make([]uint8, nsets),
		sramOff: off,
	}, nil
}

func (t *TLB) setIndex(vpage uint64) int { return int(vpage % uint64(len(t.sets))) }

// Lookup returns the cached frame for vpage.
func (t *TLB) Lookup(vpage uint64) (int, bool) {
	set := &t.sets[t.setIndex(vpage)]
	for w := 0; w < 2; w++ {
		if set[w].valid && set[w].vpage == vpage {
			t.lru[t.setIndex(vpage)] = uint8(1 - w) // other way becomes eviction victim
			return set[w].frame, true
		}
	}
	return 0, false
}

// Insert caches vpage->frame, evicting the set's LRU way if both are
// valid. It returns the evicted translation (so the driver can unlock its
// page) and whether one was evicted.
func (t *TLB) Insert(vpage uint64, frame int) (evictedVPage uint64, evictedFrame int, evicted bool) {
	si := t.setIndex(vpage)
	set := &t.sets[si]
	// Refresh in place if already present.
	for w := 0; w < 2; w++ {
		if set[w].valid && set[w].vpage == vpage {
			set[w].frame = frame
			return 0, 0, false
		}
	}
	for w := 0; w < 2; w++ {
		if !set[w].valid {
			set[w] = tlbEntry{valid: true, vpage: vpage, frame: frame}
			t.lru[si] = uint8(1 - w)
			return 0, 0, false
		}
	}
	victim := int(t.lru[si])
	old := set[victim]
	set[victim] = tlbEntry{valid: true, vpage: vpage, frame: frame}
	t.lru[si] = uint8(1 - victim)
	return old.vpage, old.frame, true
}

// InvalidateAll clears the TLB and returns every cached translation so the
// driver can unlock the pages (process teardown).
func (t *TLB) InvalidateAll() (frames []int) {
	for i := range t.sets {
		for w := 0; w < 2; w++ {
			if t.sets[i][w].valid {
				frames = append(frames, t.sets[i][w].frame)
				t.sets[i][w] = tlbEntry{}
			}
		}
	}
	return frames
}
