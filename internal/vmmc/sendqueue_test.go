package vmmc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lanai"
)

func TestSendQueueRing(t *testing.T) {
	sram := lanai.NewSRAM(64 << 10)
	q, err := newSendQueue(sram, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.pending() != 0 || q.full() {
		t.Error("fresh queue not empty")
	}
	for i := 0; i < sendQueueEntries; i++ {
		q.post(sqEntry{seq: uint32(i)})
	}
	if !q.full() {
		t.Error("queue not full after posting capacity")
	}
	for i := 0; i < sendQueueEntries; i++ {
		e, ok := q.take()
		if !ok || e.seq != uint32(i) {
			t.Fatalf("take %d = %+v,%v", i, e, ok)
		}
	}
	if _, ok := q.take(); ok {
		t.Error("take on empty queue succeeded")
	}
}

func TestSendQueueOverflowPanics(t *testing.T) {
	sram := lanai.NewSRAM(64 << 10)
	q, _ := newSendQueue(sram, 0, 0)
	for i := 0; i < sendQueueEntries; i++ {
		q.post(sqEntry{})
	}
	defer func() {
		if recover() == nil {
			t.Error("overflow post did not panic")
		}
	}()
	q.post(sqEntry{})
}

// Property: the ring preserves FIFO order under arbitrary interleavings of
// posts and takes that never exceed capacity.
func TestSendQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		sram := lanai.NewSRAM(64 << 10)
		q, err := newSendQueue(sram, 0, 0)
		if err != nil {
			return false
		}
		next, expect := uint32(0), uint32(0)
		for _, post := range ops {
			if post {
				if q.full() {
					continue
				}
				q.post(sqEntry{seq: next})
				next++
			} else {
				e, ok := q.take()
				if !ok {
					continue
				}
				if e.seq != expect {
					return false
				}
				expect++
			}
		}
		// Drain.
		for {
			e, ok := q.take()
			if !ok {
				break
			}
			if e.seq != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestPostWords(t *testing.T) {
	// Posting cost: descriptor words plus inline data words for short
	// sends, or the source-address words for long sends.
	short := sqEntry{inline: make([]byte, 10)}
	if got := postWords(short); got != 4+3 {
		t.Errorf("postWords(10B inline) = %d, want 7", got)
	}
	long := sqEntry{srcVA: 0x1000}
	if got := postWords(long); got != 6 {
		t.Errorf("postWords(long) = %d, want 6", got)
	}
	empty := sqEntry{inline: []byte{}}
	_ = empty // zero-byte inline cannot occur (SendMsg rejects n <= 0)
}

func TestScatterFor(t *testing.T) {
	sram := lanai.NewSRAM(64 << 10)
	outPT, err := newOutgoingTable(sram, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := outPT.allocRange(2)
	if err != nil {
		t.Fatal(err)
	}
	outPT.entries[base] = outEntry{valid: true, destNode: 1, destFrame: 10, validBytes: 4096}
	outPT.entries[base+1] = outEntry{valid: true, destNode: 1, destFrame: 22, validBytes: 4096}

	// Within one page: single piece.
	a1, l1, f2 := scatterFor(outPT, ProxyAddr(base*4096+100), 200)
	if a1 != 10*4096+100 || l1 != 200 || f2 != 0 {
		t.Errorf("single piece = %#x,%d,%d", a1, l1, f2)
	}
	// Crossing the boundary: two pieces, the second at the next frame.
	a1, l1, f2 = scatterFor(outPT, ProxyAddr(base*4096+4000), 300)
	if a1 != 10*4096+4000 || l1 != 96 || f2 != 22 {
		t.Errorf("split = %#x,%d,%d", a1, l1, f2)
	}
	// Exactly to the boundary: single piece.
	a1, l1, f2 = scatterFor(outPT, ProxyAddr(base*4096+4000), 96)
	if l1 != 96 || f2 != 0 {
		t.Errorf("boundary fit = %#x,%d,%d", a1, l1, f2)
	}
}

func TestWireHeaderRoundTrip(t *testing.T) {
	h := msgHeader{
		DataLen: 4096,
		Addr1:   0x123456,
		Frame2:  9,
		MsgOff:  3 * 4096,
		Len1:    96,
		Flags:   flagNotify,
		SrcNode: 3,
		SrcPid:  7,
		Seq:     41,
	}
	got, err := decodeHeader(h.appendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip %+v != %+v", got, h)
	}
	if _, err := decodeHeader([]byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
	bad := h.appendTo(nil)
	bad[0] = 0x00
	if _, err := decodeHeader(bad); err == nil {
		t.Error("bad magic accepted")
	}
}
