package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
	before := len(pm.freeFrames)
	if err := as.Free(va, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if len(pm.freeFrames) != before+2 {
		t.Errorf("%d free frames, want %d", len(pm.freeFrames), before+2)
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
	if len(pm.freeFrames) != 4 {
		t.Errorf("failed Alloc leaked frames: %d free, want 4", len(pm.freeFrames))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
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

// flatMemory is the reference Physical is checked against: one contiguous
// byte array, as the package kept before frames were allocated on demand,
// and a FIFO of the free frames that starts from Physical's own scrambled
// order.
type flatMemory struct {
	data    []byte
	free    []int
	version uint64
}

func (fm *flatMemory) bounds(op string, pa PhysAddr, n int) error {
	if end := uint64(pa) + uint64(n); end > uint64(len(fm.data)) {
		return fmt.Errorf("%w: %s [%#x,%#x)", ErrBounds, op, pa, end)
	}
	return nil
}

func (fm *flatMemory) read(pa PhysAddr, buf []byte) error {
	if err := fm.bounds("read", pa, len(buf)); err != nil {
		return err
	}
	copy(buf, fm.data[pa:])
	return nil
}

func (fm *flatMemory) write(pa PhysAddr, data []byte) error {
	if err := fm.bounds("write", pa, len(data)); err != nil {
		return err
	}
	copy(fm.data[pa:], data)
	fm.version++
	return nil
}

func (fm *flatMemory) allocFrame() (int, error) {
	if len(fm.free) == 0 {
		return 0, ErrOutOfMemory
	}
	f := fm.free[0]
	fm.free = fm.free[1:]
	fm.version++
	return f, nil
}

func (fm *flatMemory) freeFrame(f int) {
	fm.free = append(fm.free, f)
	fm.version++
}

// Differential: a seeded random mix of reads, writes, frame allocations and
// frees gives the same bytes, the same error and the same version from
// Physical as from the flat reference — at any offset, across frames, at
// zero length, ending on the last byte and one past it, and on frames
// freed and handed out again with their old bytes still in them.
func TestPhysicalMatchesFlatReference(t *testing.T) {
	const frames, ops = 8, 4000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pm := NewPhysical(frames * PageSize)
		ref := &flatMemory{data: make([]byte, frames*PageSize), free: append([]int(nil), pm.freeFrames...)}
		written := make([]bool, frames) // frames holding a written byte
		freed := make([]bool, frames)   // frames returned to the pool once
		var allocated []int
		reused := 0
		sameErr := func(op string, got, want error) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) || errors.Is(got, ErrBounds) != errors.Is(want, ErrBounds) {
				t.Fatalf("seed %d: %s: err = %v, want %v", seed, op, got, want)
			}
		}
		// A range: any offset and length, or one ending on the last byte or
		// one past it.
		span := func() (PhysAddr, int) {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 0
			case 1:
				n = 1 + rng.Intn(16)
			default:
				n = 1 + rng.Intn(3*PageSize)
			}
			switch rng.Intn(6) {
			case 0:
				return PhysAddr(frames*PageSize - n), n
			case 1:
				return PhysAddr(frames*PageSize - n + 1), n
			default:
				return PhysAddr(rng.Intn(frames*PageSize + 1)), n
			}
		}
		for i := 0; i < ops; i++ {
			switch k := rng.Intn(10); {
			case k < 4:
				pa, n := span()
				data := make([]byte, n)
				rng.Read(data)
				op := fmt.Sprintf("op %d: Write(%#x, %d bytes)", i, pa, n)
				err := pm.Write(pa, data)
				sameErr(op, err, ref.write(pa, data))
				if err == nil {
					for f := pa.Frame(); n > 0 && f <= (pa+PhysAddr(n)-1).Frame(); f++ {
						written[f] = true
					}
				}
			case k < 7:
				pa, n := span()
				got, want := bytes.Repeat([]byte{0xA5}, n), bytes.Repeat([]byte{0xA5}, n)
				op := fmt.Sprintf("op %d: Read(%#x, %d bytes)", i, pa, n)
				sameErr(op, pm.Read(pa, got), ref.read(pa, want))
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: %s: bytes differ from the reference", seed, op)
				}
			case k < 9:
				f, err := pm.AllocFrame()
				wantF, wantErr := ref.allocFrame()
				sameErr(fmt.Sprintf("op %d: AllocFrame", i), err, wantErr)
				if err == nil {
					if f != wantF {
						t.Fatalf("seed %d: op %d: AllocFrame = %d, want %d", seed, i, f, wantF)
					}
					if freed[f] && written[f] {
						reused++
					}
					allocated = append(allocated, f)
				}
			default:
				if len(allocated) == 0 {
					continue
				}
				j := rng.Intn(len(allocated))
				f := allocated[j]
				allocated = append(allocated[:j], allocated[j+1:]...)
				pm.FreeFrame(f)
				ref.freeFrame(f)
				freed[f] = true
			}
			if *pm.Version() != ref.version {
				t.Fatalf("seed %d: after op %d: version %d, want %d", seed, i, *pm.Version(), ref.version)
			}
		}
		if reused == 0 {
			t.Errorf("seed %d: no frame was handed out again with written bytes in it", seed)
		}
	}
}

// resident counts the frames whose bytes have been allocated.
func resident(pm *Physical) int {
	n := 0
	for _, f := range pm.frames {
		if f != nil {
			n++
		}
	}
	return n
}

// Only Write allocates a frame's bytes, and only for the frames it covers:
// reads, frame allocation, pinning and address-space mapping leave a fresh
// memory holding none.
func TestFramesResidentOnlyOnWrite(t *testing.T) {
	pm := NewPhysical(64 * PageSize)
	as := NewAddressSpace(pm)
	va, err := as.Alloc(8 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := pm.AllocFrame()
	pm.Pin(f)
	pm.Unpin(f)
	if err := as.Pin(va, 8*PageSize); err != nil {
		t.Fatal(err)
	}
	as.Unpin(va, 8*PageSize)
	if _, err := as.Translate(va + 3*PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*PageSize)
	if err := pm.Read(PageSize/2, buf); err != nil {
		t.Fatal(err)
	}
	if err := as.ReadInto(va+100, buf); err != nil {
		t.Fatal(err)
	}
	if err := pm.Write(5*PageSize, nil); err != nil {
		t.Fatal(err)
	}
	if n := resident(pm); n != 0 {
		t.Fatalf("%d frames resident before any write with bytes, want 0", n)
	}

	expect := func(what string, frames ...int) {
		t.Helper()
		want := make([]bool, pm.NumFrames())
		for _, f := range frames {
			want[f] = true
		}
		for f, b := range pm.frames {
			if (b != nil) != want[f] {
				t.Errorf("%s: frame %d resident = %v, want %v", what, f, b != nil, want[f])
			}
		}
	}
	// Covers the last byte of frame 1, all of frame 2 and the first of 3.
	if err := pm.Write(2*PageSize-1, make([]byte, PageSize+2)); err != nil {
		t.Fatal(err)
	}
	expect("Write across frames 1-3", 1, 2, 3)
	if err := pm.Write(2*PageSize+7, []byte{1}); err != nil {
		t.Fatal(err)
	}
	expect("Write inside a resident frame", 1, 2, 3)
	pa0, _ := as.Translate(va)
	pa1, _ := as.Translate(va + PageSize)
	if err := as.WriteBytes(va+PageSize-1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	expect("WriteBytes across two pages", 1, 2, 3, pa0.Frame(), pa1.Frame())
	if err := pm.Write(PhysAddr(pm.Size()-1), []byte{1, 2}); err == nil {
		t.Fatal("write past the end succeeded")
	}
	expect("failed Write", 1, 2, 3, pa0.Frame(), pa1.Frame())
}
