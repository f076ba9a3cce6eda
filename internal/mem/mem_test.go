package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestAddrHelpers(t *testing.T) {
	va := VirtAddr(0x12345)
	if va.Page() != 0x12 {
		t.Errorf("Page() = %#x, want 0x12", va.Page())
	}
	if va.Offset() != 0x345 {
		t.Errorf("Offset() = %#x, want 0x345", va.Offset())
	}
	pa := PhysAddr(0x7fff)
	if pa.Frame() != 7 {
		t.Errorf("Frame() = %d, want 7", pa.Frame())
	}
	if pa.Offset() != 0xfff {
		t.Errorf("Offset() = %#x, want 0xfff", pa.Offset())
	}
}

func TestPageSpan(t *testing.T) {
	cases := []struct {
		va   VirtAddr
		n    int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{PageSize - 1, 1, 1},
		{PageSize - 1, 2, 2},
		{100, 2 * PageSize, 3},
		{0, -5, 0},
	}
	for _, c := range cases {
		if got := PageSpan(c.va, c.n); got != c.want {
			t.Errorf("PageSpan(%#x, %d) = %d, want %d", c.va, c.n, got, c.want)
		}
	}
}

func TestPhysicalReadWrite(t *testing.T) {
	pm := NewPhysical(16 * PageSize)
	data := []byte("hello across a frame boundary")
	pa := PhysAddr(PageSize - 5)
	if err := pm.Write(pa, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := pm.Read(pa, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
}

func TestPhysicalBounds(t *testing.T) {
	pm := NewPhysical(2 * PageSize)
	if err := pm.Write(PhysAddr(2*PageSize-1), []byte{1, 2}); err == nil {
		t.Error("out-of-bounds write succeeded")
	}
	if err := pm.Read(PhysAddr(2*PageSize), make([]byte, 1)); err == nil {
		t.Error("out-of-bounds read succeeded")
	}
}

func TestNewPhysicalBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPhysical(100) did not panic")
		}
	}()
	NewPhysical(100)
}

func TestFrameAllocationScrambled(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	a, _ := pm.AllocFrame()
	b, _ := pm.AllocFrame()
	if b == a+1 {
		t.Errorf("consecutive allocations got contiguous frames %d,%d; scramble broken", a, b)
	}
}

func TestFrameAllocationExhaustionAndReuse(t *testing.T) {
	pm := NewPhysical(4 * PageSize)
	var frames []int
	for i := 0; i < 4; i++ {
		f, err := pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := pm.AllocFrame(); err == nil {
		t.Error("allocation beyond capacity succeeded")
	}
	pm.FreeFrame(frames[2])
	if f, err := pm.AllocFrame(); err != nil || f != frames[2] {
		t.Errorf("reuse = %d,%v, want %d", f, err, frames[2])
	}
}

func TestPinning(t *testing.T) {
	pm := NewPhysical(4 * PageSize)
	f, _ := pm.AllocFrame()
	if pm.Pinned(f) {
		t.Error("fresh frame pinned")
	}
	pm.Pin(f)
	pm.Pin(f)
	if !pm.Pinned(f) {
		t.Error("pinned frame not pinned")
	}
	pm.Unpin(f)
	if !pm.Pinned(f) {
		t.Error("pin count not refcounted")
	}
	pm.Unpin(f)
	if pm.Pinned(f) {
		t.Error("fully unpinned frame still pinned")
	}
}

func TestFreePinnedFramePanics(t *testing.T) {
	pm := NewPhysical(4 * PageSize)
	f, _ := pm.AllocFrame()
	pm.Pin(f)
	defer func() {
		if recover() == nil {
			t.Error("freeing pinned frame did not panic")
		}
	}()
	pm.FreeFrame(f)
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	pm := NewPhysical(4 * PageSize)
	f, _ := pm.AllocFrame()
	defer func() {
		if recover() == nil {
			t.Error("unpinning unpinned frame did not panic")
		}
	}()
	pm.Unpin(f)
}

func TestAddressSpaceAllocTranslate(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	as := NewAddressSpace(pm)
	va, err := as.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if va.Offset() != 0 {
		t.Errorf("Alloc returned unaligned address %#x", va)
	}
	pa0, err := as.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	pa1, err := as.Translate(va + PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if pa1 == pa0+PageSize {
		t.Error("virtually contiguous pages are physically contiguous; scramble broken")
	}
	if _, err := as.Translate(va + 3*PageSize); err == nil {
		t.Error("translation past allocation succeeded")
	}
	if _, err := as.Translate(0); err == nil {
		t.Error("null address translated")
	}
}

func TestAddressSpaceDistinctAllocations(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	as := NewAddressSpace(pm)
	a, _ := as.Alloc(PageSize)
	b, _ := as.Alloc(PageSize)
	if a == b {
		t.Error("two allocations share an address")
	}
	if b < a+PageSize {
		t.Error("allocations overlap")
	}
}

func TestAddressSpaceReadWriteAcrossPages(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	as := NewAddressSpace(pm)
	va, _ := as.Alloc(4 * PageSize)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := va + 100 // unaligned, crosses three page boundaries
	if err := as.WriteBytes(start, data); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadBytes(start, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page read/write mismatch")
	}
}

func TestAddressSpacePinUnpin(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	as := NewAddressSpace(pm)
	va, _ := as.Alloc(2 * PageSize)
	if err := as.Pin(va+10, PageSize); err != nil { // spans 2 pages
		t.Fatal(err)
	}
	pa0, _ := as.Translate(va)
	pa1, _ := as.Translate(va + PageSize)
	if !pm.Pinned(pa0.Frame()) || !pm.Pinned(pa1.Frame()) {
		t.Error("Pin did not pin all spanned frames")
	}
	as.Unpin(va+10, PageSize)
	if pm.Pinned(pa0.Frame()) || pm.Pinned(pa1.Frame()) {
		t.Error("Unpin did not unpin all spanned frames")
	}
}

func TestAddressSpacePinUnmappedRollsBack(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	as := NewAddressSpace(pm)
	va, _ := as.Alloc(PageSize)
	if err := as.Pin(va, 2*PageSize); err == nil {
		t.Fatal("pin of partially unmapped range succeeded")
	}
	pa, _ := as.Translate(va)
	if pm.Pinned(pa.Frame()) {
		t.Error("failed Pin left first frame pinned")
	}
}

func TestAddressSpaceFree(t *testing.T) {
	pm := NewPhysical(8 * PageSize)
	as := NewAddressSpace(pm)
	va, _ := as.Alloc(2 * PageSize)
	before := pm.FreeFrames()
	if err := as.Free(va, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if pm.FreeFrames() != before+2 {
		t.Errorf("FreeFrames = %d, want %d", pm.FreeFrames(), before+2)
	}
	if _, err := as.Translate(va); err == nil {
		t.Error("freed page still translates")
	}
	// Freeing pinned memory must fail.
	va2, _ := as.Alloc(PageSize)
	if err := as.Pin(va2, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Free(va2, PageSize); err == nil {
		t.Error("freeing pinned range succeeded")
	}
}

func TestAllocExhaustionRollsBack(t *testing.T) {
	pm := NewPhysical(4 * PageSize)
	as := NewAddressSpace(pm)
	if _, err := as.Alloc(8 * PageSize); err == nil {
		t.Fatal("oversized Alloc succeeded")
	}
	if pm.FreeFrames() != 4 {
		t.Errorf("failed Alloc leaked frames: %d free, want 4", pm.FreeFrames())
	}
}

// Property: for any offset/length within an allocation, data written via
// WriteBytes reads back identically via ReadBytes, and the same bytes are
// visible through physical reads at the translated addresses.
func TestReadWriteRoundTripProperty(t *testing.T) {
	pm := NewPhysical(256 * PageSize)
	as := NewAddressSpace(pm)
	const region = 16 * PageSize
	base, err := as.Alloc(region)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, seed byte, lenSeed uint16) bool {
		n := int(lenSeed)%(4*PageSize) + 1
		start := base + VirtAddr(int(off)%(region-n))
		data := make([]byte, n)
		for i := range data {
			data[i] = seed ^ byte(i)
		}
		if err := as.WriteBytes(start, data); err != nil {
			return false
		}
		got, err := as.ReadBytes(start, n)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		// Cross-check one byte through the physical path.
		pa, err := as.Translate(start)
		if err != nil {
			return false
		}
		one := make([]byte, 1)
		if err := pm.Read(pa, one); err != nil {
			return false
		}
		return one[0] == data[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Translate is consistent with the page table — same page in,
// same frame out; offset preserved.
func TestTranslateOffsetPreservedProperty(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	as := NewAddressSpace(pm)
	base, _ := as.Alloc(8 * PageSize)
	f := func(off uint16) bool {
		va := base + VirtAddr(off)%(8*PageSize)
		pa, err := as.Translate(va)
		if err != nil {
			return false
		}
		return pa.Offset() == va.Offset()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ReadInto is ReadBytes into the caller's buffer: same bytes, same errors,
// across a page boundary, and nothing allocated.
func TestReadIntoMatchesReadBytesWithoutAllocating(t *testing.T) {
	pm := NewPhysical(1 << 20)
	as := NewAddressSpace(pm)
	va, err := as.Alloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	at := va + PageSize - 3 // straddles the boundary
	if err := as.WriteBytes(at, data); err != nil {
		t.Fatal(err)
	}
	want, err := as.ReadBytes(at, len(data))
	if err != nil {
		t.Fatal(err)
	}
	var got [8]byte
	if err := as.ReadInto(at, got[:]); err != nil || !bytes.Equal(got[:], want) {
		t.Fatalf("ReadInto = %v, %v; ReadBytes = %v", got, err, want)
	}
	if err := as.ReadInto(va+2*PageSize-4, got[:]); !errors.Is(err, ErrBadAddress) {
		t.Errorf("ReadInto past the mapping: err = %v, want ErrBadAddress", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		var b [8]byte
		if as.ReadInto(at, b[:]) != nil || b[0] != 1 {
			t.Fatal("bad read")
		}
	}); n != 0 {
		t.Errorf("ReadInto allocates %v times per call", n)
	}
}

// The version is what memory-scoped spins watch: everything a predicate
// built on Translate and Read can observe has to move it, and what it
// cannot observe — reads, pins — should not, or spins wake for nothing.
func TestVersionMovesWithStoresAndMappings(t *testing.T) {
	pm := NewPhysical(16 * PageSize)
	as := NewAddressSpace(pm)
	v := pm.Version()
	moved := func(what string, want bool, fn func()) {
		t.Helper()
		before := *v
		fn()
		if got := *v != before; got != want {
			t.Errorf("%s: version moved = %v, want %v", what, got, want)
		}
	}
	var va VirtAddr
	moved("Alloc (AllocFrame)", true, func() { va, _ = as.Alloc(PageSize) })
	moved("WriteBytes (Write)", true, func() { as.WriteBytes(va, []byte{1}) })
	moved("Write", true, func() { pm.Write(0, []byte{1}) })
	moved("Touch", true, pm.Touch)
	moved("AllocContiguousFrames", true, func() { pm.AllocContiguousFrames(2) })
	moved("ReadInto", false, func() { var b [1]byte; as.ReadInto(va, b[:]) })
	moved("Pin/Unpin", false, func() { as.Pin(va, 1); as.Unpin(va, 1) })
	moved("failed Write", false, func() { pm.Write(PhysAddr(pm.Size()), []byte{1}) })
	moved("Free (FreeFrame)", true, func() { as.Free(va, PageSize) })
}
