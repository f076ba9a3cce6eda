// Package mem models a host's physical memory and per-process virtual
// address spaces at page granularity, with backing bytes allocated per
// frame on first write.
//
// VMMC's correctness hinges on the virtual/physical distinction: send and
// receive buffers live in virtual memory, the network interface deals only
// in physical frames, consecutive virtual pages are usually not physically
// contiguous (which caps DMA transfer units at one page), and frames must
// be pinned while the NIC may DMA to or from them. All of that is modeled
// structurally here; actual data moves through the backing frames so
// end-to-end transfers can be checked byte for byte. A frame nothing has
// written reads as zeros and holds no bytes, so a node's RAM costs the host
// what its workload writes, not what its configuration provisions.
package mem

import (
	"errors"
	"fmt"
)

// Page geometry, matching the paper's 4 KByte pages.
const (
	PageSize  = 4096
	PageShift = 12
	PageMask  = PageSize - 1
)

// PhysAddr is a node-local physical byte address.
type PhysAddr uint64

// VirtAddr is a process virtual byte address.
type VirtAddr uint64

// Frame returns the physical frame number containing pa.
func (pa PhysAddr) Frame() int { return int(pa >> PageShift) }

// Offset returns pa's offset within its frame.
func (pa PhysAddr) Offset() int { return int(pa & PageMask) }

// Page returns the virtual page number containing va.
func (va VirtAddr) Page() uint64 { return uint64(va) >> PageShift }

// Offset returns va's offset within its page.
func (va VirtAddr) Offset() int { return int(va & PageMask) }

// PageSpan returns how many pages the byte range [va, va+n) touches.
func PageSpan(va VirtAddr, n int) int {
	if n <= 0 {
		return 0
	}
	first := va.Page()
	last := (uint64(va) + uint64(n) - 1) >> PageShift
	return int(last - first + 1)
}

// Errors reported by this package.
var (
	ErrOutOfMemory = errors.New("mem: out of physical memory")
	ErrBadAddress  = errors.New("mem: address not mapped")
	ErrBounds      = errors.New("mem: access outside physical memory")
)

// Physical is one node's physical memory: a physically contiguous address
// range of frames with per-frame pin counts. DMA engines address it
// directly. A frame's bytes are allocated by the first Write that touches
// it; until then it reads as zeros.
type Physical struct {
	frames []*[PageSize]byte
	pins   []int

	// freeFrames is the frame allocation pool. Frames are handed out in a
	// deliberately scrambled order so that virtually contiguous
	// allocations are physically discontiguous, as on a real, long-running
	// system. The scramble is deterministic.
	freeFrames []int

	// reclaims counts, per frame, the times AddressSpace.Release took the
	// frame back from a dead process; nil until the first time.
	reclaims []uint32

	// version is what a spin on this memory watches (Version).
	version uint64
}

// NewPhysical returns a node memory of the given size, which must be a
// positive multiple of PageSize.
func NewPhysical(size int) *Physical {
	if size <= 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("mem: physical size %d not a positive multiple of %d", size, PageSize))
	}
	n := size / PageSize
	pm := &Physical{
		frames: make([]*[PageSize]byte, n),
		pins:   make([]int, n),
	}
	// Scramble the free list with a fixed odd stride so consecutive
	// allocations land on discontiguous frames.
	const stride = 17
	seen := make([]bool, n)
	f := 0
	for i := 0; i < n; i++ {
		for seen[f] {
			f = (f + 1) % n
		}
		seen[f] = true
		pm.freeFrames = append(pm.freeFrames, f)
		f = (f + stride) % n
	}
	return pm
}

// Version returns the address of the memory's version counter, the watch a
// spin whose predicate reads this memory hands to sim.Proc.PollUntil: the
// spin is re-evaluated only after the counter moved. It is bumped by every
// store into the backing bytes (Write, the only one: CPU stores and DMA
// deposits alike) and by every change to the frame pool (AllocFrame,
// AllocContiguousFrames, FreeFrame), which is when an address space's page
// table — what Translate consults — can change. Anything else such a
// predicate reads (a crash flag, a process's liveness) is outside the
// counter, and whoever changes it must call Touch.
func (pm *Physical) Version() *uint64 { return &pm.version }

// Touch bumps the version without storing anything: for state that is not
// memory but that predicates spinning on this memory also read.
func (pm *Physical) Touch() { pm.version++ }

// Size returns the memory size in bytes.
func (pm *Physical) Size() int { return len(pm.frames) * PageSize }

// NumFrames returns the number of physical frames.
func (pm *Physical) NumFrames() int { return len(pm.pins) }

// AllocFrame removes one frame from the free pool.
func (pm *Physical) AllocFrame() (int, error) {
	if len(pm.freeFrames) == 0 {
		return 0, ErrOutOfMemory
	}
	f := pm.freeFrames[0]
	pm.freeFrames = pm.freeFrames[1:]
	pm.version++
	return f, nil
}

// AllocContiguousFrames removes a physically contiguous run of k frames
// from the pool and returns the first frame number. Boot-time kernel
// allocations (DMA staging rings of the baseline protocols) use this; it
// fails if fragmentation leaves no run of k free frames.
func (pm *Physical) AllocContiguousFrames(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("mem: AllocContiguousFrames(%d)", k)
	}
	free := make(map[int]bool, len(pm.freeFrames))
	for _, f := range pm.freeFrames {
		free[f] = true
	}
	for start := 0; start+k <= pm.NumFrames(); start++ {
		run := true
		for i := 0; i < k; i++ {
			if !free[start+i] {
				run = false
				break
			}
		}
		if !run {
			continue
		}
		taken := make(map[int]bool, k)
		for i := 0; i < k; i++ {
			taken[start+i] = true
		}
		out := pm.freeFrames[:0]
		for _, f := range pm.freeFrames {
			if !taken[f] {
				out = append(out, f)
			}
		}
		pm.freeFrames = out
		pm.version++
		return start, nil
	}
	return 0, ErrOutOfMemory
}

// FreeFrame returns a frame to the pool. The frame must be unpinned.
func (pm *Physical) FreeFrame(f int) {
	if pm.pins[f] != 0 {
		panic(fmt.Sprintf("mem: freeing pinned frame %d", f))
	}
	pm.freeFrames = append(pm.freeFrames, f)
	pm.version++
}

// reclaim returns a dead process's frame to the pool with its bytes
// dropped, so that it reads as zeros, and counts it in reclaims.
func (pm *Physical) reclaim(f int) {
	if pm.reclaims == nil {
		pm.reclaims = make([]uint32, len(pm.frames))
	}
	pm.reclaims[f]++
	pm.frames[f] = nil
	pm.FreeFrame(f)
}

// Reclaims returns the times the frames under the n > 0 bytes at pa were
// reclaimed from a dead process, summed. A DMA that stores only when its
// transfer time is up reads it when it checks its frames and again before
// it stores: if the sum moved, a frame changed owner in between.
func (pm *Physical) Reclaims(pa PhysAddr, n int) uint64 {
	if pm.reclaims == nil {
		return 0
	}
	var sum uint64
	for f := pa.Frame(); f <= (pa + PhysAddr(n-1)).Frame(); f++ {
		sum += uint64(pm.reclaims[f])
	}
	return sum
}

// Pin increments the frame's pin count, preventing (modeled) eviction.
func (pm *Physical) Pin(frame int) { pm.pins[frame]++ }

// Unpin decrements the frame's pin count.
func (pm *Physical) Unpin(frame int) {
	if pm.pins[frame] == 0 {
		panic(fmt.Sprintf("mem: unpinning unpinned frame %d", frame))
	}
	pm.pins[frame]--
}

// Pinned reports whether the frame has a nonzero pin count.
func (pm *Physical) Pinned(frame int) bool { return pm.pins[frame] > 0 }

// ResetPins clears every pin count — crash semantics: a rebooted node's
// OS holds no locked pages, whatever the dead software pinned.
func (pm *Physical) ResetPins() {
	for i := range pm.pins {
		pm.pins[i] = 0
	}
}

// Read copies len(buf) bytes starting at pa into buf. The range may cross
// frame boundaries; physical memory is contiguous. A frame no Write has
// touched reads as zeros.
func (pm *Physical) Read(pa PhysAddr, buf []byte) error {
	end := uint64(pa) + uint64(len(buf))
	if end > uint64(pm.Size()) {
		return fmt.Errorf("%w: read [%#x,%#x)", ErrBounds, pa, end)
	}
	for len(buf) > 0 {
		n := min(len(buf), PageSize-pa.Offset())
		if f := pm.frames[pa.Frame()]; f != nil {
			copy(buf[:n], f[pa.Offset():])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		pa += PhysAddr(n)
	}
	return nil
}

// Write copies data into physical memory starting at pa, allocating each
// frame it touches for the first time.
func (pm *Physical) Write(pa PhysAddr, data []byte) error {
	end := uint64(pa) + uint64(len(data))
	if end > uint64(pm.Size()) {
		return fmt.Errorf("%w: write [%#x,%#x)", ErrBounds, pa, end)
	}
	for len(data) > 0 {
		f := pm.frames[pa.Frame()]
		if f == nil {
			f = new([PageSize]byte)
			pm.frames[pa.Frame()] = f
		}
		n := copy(f[pa.Offset():], data)
		data = data[n:]
		pa += PhysAddr(n)
	}
	pm.version++
	return nil
}
