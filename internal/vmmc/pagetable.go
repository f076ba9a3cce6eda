package vmmc

import (
	"fmt"

	"repro/internal/lanai"
	"repro/internal/mem"
)

// IncomingTable is the interface's incoming page table (§4.4): one entry
// per physical memory frame, indicating whether an arriving message may
// write that frame and whether delivery should raise a notification. The
// daemon installs entries at export time; the LCP consults them on every
// arriving chunk. It occupies SRAM (4 bytes per frame, as in the paper).
type IncomingTable struct {
	entries []inEntry
	sramOff int
}

type inEntry struct {
	writable bool
	notifyOK bool
	owner    int          // exporting process pid
	tag      uint32       // export identifier, for notification dispatch
	frameVA  mem.VirtAddr // VA of this frame's page in the owner's space
	baseVA   mem.VirtAddr // VA of the whole exported buffer
	// Valid byte range within the frame that lies inside the export
	// ([start, end)). Frames fully covered have start=0, end=PageSize.
	start, end int
}

const incomingEntryBytes = 4 // SRAM footprint per entry (paper format)

// newIncomingTable allocates the table in SRAM, one entry per host frame.
func newIncomingTable(sram *lanai.SRAM, frames int) (*IncomingTable, error) {
	off, err := sram.Alloc(frames*incomingEntryBytes, "incoming-pt")
	if err != nil {
		return nil, err
	}
	return &IncomingTable{entries: make([]inEntry, frames), sramOff: off}, nil
}

// set installs an entry for frame.
func (t *IncomingTable) set(frame int, e inEntry) { t.entries[frame] = e }

// clear invalidates frame's entry.
func (t *IncomingTable) clear(frame int) { t.entries[frame] = inEntry{} }

// check validates that [pa, pa+n) may be written by an arriving message:
// every touched frame must be writable and the byte range within each
// frame must lie inside the exported extent.
func (t *IncomingTable) check(pa mem.PhysAddr, n int) error {
	if n <= 0 {
		return fmt.Errorf("vmmc: zero-length scatter piece")
	}
	off := 0
	for off < n {
		addr := pa + mem.PhysAddr(off)
		f := addr.Frame()
		if f >= len(t.entries) || !t.entries[f].writable {
			return fmt.Errorf("vmmc: frame %d not exported", f)
		}
		e := &t.entries[f]
		chunk := mem.PageSize - addr.Offset()
		if chunk > n-off {
			chunk = n - off
		}
		if addr.Offset() < e.start || addr.Offset()+chunk > e.end {
			return fmt.Errorf("vmmc: write [%d,%d) outside exported extent [%d,%d) of frame %d",
				addr.Offset(), addr.Offset()+chunk, e.start, e.end, f)
		}
		off += chunk
	}
	return nil
}

// exportOff is the offset of pa, in this entry's frame, within the export.
func (e inEntry) exportOff(pa mem.PhysAddr) int { return int(e.frameVA) + pa.Offset() - int(e.baseVA) }

// lookup returns the entry for the frame containing pa.
func (t *IncomingTable) lookup(pa mem.PhysAddr) (inEntry, bool) {
	f := pa.Frame()
	if f >= len(t.entries) || !t.entries[f].writable {
		return inEntry{}, false
	}
	return t.entries[f], true
}

// OutgoingTable is one sending process's outgoing page table (§4.4): an
// entry per destination-proxy page, each encoding the destination node and
// physical frame (a 32-bit integer in the paper). Its 2048-entry capacity
// caps total imported receive buffers at 8 MB. It lives in the process's
// SRAM allocation; one table per process means a process can only name
// destinations it imported itself — the protection argument of §4.4.
type OutgoingTable struct {
	entries []outEntry
	sramOff int
}

type outEntry struct {
	valid     bool
	destNode  int
	destFrame int
	// validBytes is how many bytes of this proxy page fall inside the
	// imported buffer (PageSize except possibly the final page).
	validBytes int
}

const (
	// OutPTEntries caps imported buffers at 8 MB with 4 KB pages (§4.4).
	OutPTEntries      = 2048
	outEntryBytes     = 4
	outTableSRAMBytes = OutPTEntries * outEntryBytes
)

func newOutgoingTable(sram *lanai.SRAM, pid int) (*OutgoingTable, error) {
	off, err := sram.Alloc(outTableSRAMBytes, fmt.Sprintf("outpt:%d", pid))
	if err != nil {
		return nil, err
	}
	return &OutgoingTable{entries: make([]outEntry, OutPTEntries), sramOff: off}, nil
}

// allocRange finds a contiguous run of pages free proxy pages, first-fit.
func (t *OutgoingTable) allocRange(pages int) (int, error) {
	if pages <= 0 || pages > len(t.entries) {
		return 0, ErrImportTooBig
	}
	run := 0
	for i := range t.entries {
		if t.entries[i].valid {
			run = 0
			continue
		}
		run++
		if run == pages {
			return i - pages + 1, nil
		}
	}
	return 0, ErrImportTooBig
}

// freeRange invalidates pages starting at base.
func (t *OutgoingTable) freeRange(base, pages int) {
	for i := base; i < base+pages; i++ {
		t.entries[i] = outEntry{}
	}
}

// lookup returns the entry for a proxy page.
func (t *OutgoingTable) lookup(page int) (outEntry, bool) {
	if page < 0 || page >= len(t.entries) || !t.entries[page].valid {
		return outEntry{}, false
	}
	return t.entries[page], true
}

// checkTransfer verifies that [dest, dest+n) lies entirely within valid,
// contiguously imported proxy pages of a single import (same destination
// node), returning that node. This is the sender-side protection check:
// VMMC guarantees transferred data cannot land outside the destination
// receive buffer (§2).
func (t *OutgoingTable) checkTransfer(dest ProxyAddr, n int) (int, error) {
	if n <= 0 {
		return 0, ErrBadBuffer
	}
	first, ok := t.lookup(dest.Page())
	if !ok {
		return 0, ErrNotImported
	}
	off := 0
	for off < n {
		a := dest + ProxyAddr(off)
		e, ok := t.lookup(a.Page())
		if !ok || e.destNode != first.destNode {
			return 0, ErrNotImported
		}
		chunk := mem.PageSize - a.Offset()
		if chunk > n-off {
			chunk = n - off
		}
		if a.Offset()+chunk > e.validBytes {
			return 0, ErrOutOfRange
		}
		off += chunk
	}
	return first.destNode, nil
}
