package mem

import (
	"fmt"
	"slices"
)

// AddressSpace is one process's virtual memory: a page table mapping
// virtual pages to physical frames of the node's Physical memory, plus a
// simple bump allocator for fresh virtual ranges.
type AddressSpace struct {
	phys  *Physical
	pages map[uint64]int // virtual page -> physical frame
	brk   VirtAddr       // next unallocated virtual address
}

// NewAddressSpace returns an empty address space over phys. The virtual
// allocation cursor starts above zero so that address 0 stays unmapped
// (a useful "null" guard, as on a real OS).
func NewAddressSpace(phys *Physical) *AddressSpace {
	return &AddressSpace{
		phys:  phys,
		pages: make(map[uint64]int),
		brk:   0x10000,
	}
}

// Physical returns the node memory backing this address space.
func (as *AddressSpace) Physical() *Physical { return as.phys }

// Alloc maps n bytes of fresh, page-aligned virtual memory and returns its
// starting address. The backing frames are generally not physically
// contiguous.
func (as *AddressSpace) Alloc(n int) (VirtAddr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: Alloc(%d): size must be positive", n)
	}
	pages := (n + PageSize - 1) / PageSize
	base := as.brk
	for i := 0; i < pages; i++ {
		f, err := as.phys.AllocFrame()
		if err != nil {
			// Roll back the partial mapping.
			for j := 0; j < i; j++ {
				vp := base.Page() + uint64(j)
				as.phys.FreeFrame(as.pages[vp])
				delete(as.pages, vp)
			}
			return 0, err
		}
		as.pages[base.Page()+uint64(i)] = f
	}
	as.brk = base + VirtAddr(pages*PageSize)
	return base, nil
}

// Free unmaps the n-byte range starting at the page-aligned address va and
// returns its frames to the pool. All pages must be mapped and unpinned.
func (as *AddressSpace) Free(va VirtAddr, n int) error {
	if va.Offset() != 0 {
		return fmt.Errorf("mem: Free(%#x): not page aligned", va)
	}
	pages := (n + PageSize - 1) / PageSize
	for i := 0; i < pages; i++ {
		vp := va.Page() + uint64(i)
		f, ok := as.pages[vp]
		if !ok {
			return fmt.Errorf("%w: vpage %#x", ErrBadAddress, vp)
		}
		if as.phys.Pinned(f) {
			return fmt.Errorf("mem: Free(%#x): frame %d still pinned", va, f)
		}
		as.phys.FreeFrame(f)
		delete(as.pages, vp)
	}
	return nil
}

// Release unmaps the whole address space — a dead process's — and returns
// each of its frames to the pool in virtual-page order, dropping the
// frame's bytes first: a reclaimed frame reads as zeros, so nothing of
// the dead process reaches the next one, and a DMA still in flight into
// one of them sees it in Physical.Reclaims. Every frame must be unpinned.
func (as *AddressSpace) Release() {
	vps := make([]uint64, 0, len(as.pages))
	for vp := range as.pages {
		vps = append(vps, vp)
	}
	slices.Sort(vps)
	for _, vp := range vps {
		as.phys.reclaim(as.pages[vp])
	}
	clear(as.pages)
}

// Translate maps a virtual address to the physical address backing it.
func (as *AddressSpace) Translate(va VirtAddr) (PhysAddr, error) {
	f, ok := as.pages[va.Page()]
	if !ok {
		return 0, fmt.Errorf("%w: va %#x", ErrBadAddress, va)
	}
	return PhysAddr(f)<<PageShift | PhysAddr(va.Offset()), nil
}

// Mapped reports whether every byte of [va, va+n) is mapped.
func (as *AddressSpace) Mapped(va VirtAddr, n int) bool {
	for i := 0; i < PageSpan(va, n); i++ {
		if _, ok := as.pages[va.Page()+uint64(i)]; !ok {
			return false
		}
	}
	return true
}

// Pin pins every frame backing [va, va+n).
func (as *AddressSpace) Pin(va VirtAddr, n int) error {
	span := PageSpan(va, n)
	for i := 0; i < span; i++ {
		f, ok := as.pages[va.Page()+uint64(i)]
		if !ok {
			for j := 0; j < i; j++ {
				as.phys.Unpin(as.pages[va.Page()+uint64(j)])
			}
			return fmt.Errorf("%w: pin va %#x+%d pages", ErrBadAddress, va, i)
		}
		as.phys.Pin(f)
	}
	return nil
}

// Unpin reverses a Pin of the same range.
func (as *AddressSpace) Unpin(va VirtAddr, n int) {
	for i := 0; i < PageSpan(va, n); i++ {
		if f, ok := as.pages[va.Page()+uint64(i)]; ok {
			as.phys.Unpin(f)
		}
	}
}

// ReadBytes copies n bytes of virtual memory starting at va, following the
// page table across page boundaries.
func (as *AddressSpace) ReadBytes(va VirtAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := as.ReadInto(va, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills buf from virtual memory starting at va. It is ReadBytes
// without the allocation, for readers that look at the same few bytes over
// and over (a spin on a flag or a completion word).
func (as *AddressSpace) ReadInto(va VirtAddr, buf []byte) error {
	n := len(buf)
	off := 0
	for off < n {
		pa, err := as.Translate(va + VirtAddr(off))
		if err != nil {
			return err
		}
		chunk := PageSize - (va + VirtAddr(off)).Offset()
		if chunk > n-off {
			chunk = n - off
		}
		if err := as.phys.Read(pa, buf[off:off+chunk]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// WriteBytes copies data into virtual memory starting at va.
func (as *AddressSpace) WriteBytes(va VirtAddr, data []byte) error {
	off := 0
	for off < len(data) {
		pa, err := as.Translate(va + VirtAddr(off))
		if err != nil {
			return err
		}
		chunk := PageSize - (va + VirtAddr(off)).Offset()
		if chunk > len(data)-off {
			chunk = len(data) - off
		}
		if err := as.phys.Write(pa, data[off:off+chunk]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}
