package vmmc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestHeaderFullWidth sets every header field in turn to 0, 1 and the
// largest value its type holds, the others to distinct values, and
// requires the wire form to be hdrSize bytes that decode to the same
// header: no field is narrower on the wire than in the struct.
func TestHeaderFullWidth(t *testing.T) {
	base := msgHeader{Flags: 0x5A, DataLen: 0x0102, SrcNode: 0x0304, SrcPid: 0x0506,
		Addr1: 0x0708090A0B0C0D0E, Frame2: 0x11121314, MsgOff: 0x15161718, Len1: 0x191A, Seq: 0x1B1C}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		top := uint64(1)<<(typ.Field(i).Type.Bits()-1)<<1 - 1
		for _, v := range []uint64{0, 1, top} {
			h := base
			reflect.ValueOf(&h).Elem().Field(i).SetUint(v)
			wire := h.appendTo(nil)
			if len(wire) != hdrSize {
				t.Fatalf("%s=%#x: %d wire bytes, want %d", typ.Field(i).Name, v, len(wire), hdrSize)
			}
			got, err := decodeHeader(wire)
			if err != nil || got != h {
				t.Errorf("%s=%#x: decoded %+v, %v; want %+v", typ.Field(i).Name, v, got, err, h)
			}
		}
	}
}

// FuzzDecodeHeader: whatever the bytes, decodeHeader either refuses them
// (too short, or no magic) or returns a header whose wire form is exactly
// the bytes it read. Seeded with every malformed packet shape.
func FuzzDecodeHeader(f *testing.F) {
	for _, c := range malformedPayloads(0x1000, 0x2000, 1<<30) {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := decodeHeader(b)
		if len(b) < hdrSize || b[0] != hdrMagic {
			if err == nil {
				t.Fatalf("decoded %d bytes without a header: %+v", len(b), h)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if wire := h.appendTo(nil); !bytes.Equal(wire, b[:hdrSize]) {
			t.Fatalf("re-encoded % x, read % x", wire, b[:hdrSize])
		}
	})
}

// TestIdentityLimits: a cluster, a frame or a pid the header cannot name
// is refused, never wrapped.
func TestIdentityLimits(t *testing.T) {
	if _, err := NewCluster(sim.NewEngine(), Options{Nodes: maxWireID + 2}); err == nil {
		t.Errorf("NewCluster accepted %d nodes; node ids are 16 bits", maxWireID+2)
	}
	if _, err := NewCluster(sim.NewEngine(), Options{Nodes: 1, MemBytes: (maxWireFrame + 2) * mem.PageSize}); err == nil {
		t.Errorf("NewCluster accepted %d frames per node; frame numbers are 32 bits", maxWireFrame+2)
	}
	testCluster(t, 1, func(p *simProc, c *Cluster) {
		n := c.Nodes[0]
		n.nextPid = maxWireID
		if last, err := n.NewProcess(p); err != nil || last.Pid != maxWireID {
			t.Fatalf("pid %d: %v", maxWireID, err)
		}
		if _, err := n.NewProcess(p); !errors.Is(err, ErrPidExhausted) {
			t.Errorf("pid %d: err = %v, want ErrPidExhausted", maxWireID+1, err)
		}
	})
}

// pidsUsed creates and closes processes on n until its next pid is next.
func pidsUsed(t *testing.T, p *simProc, n *Node, next int) {
	t.Helper()
	for n.nextPid < next {
		proc, err := n.NewProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := proc.Close(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNotifyNamesSenderPast255: node 0's 257th process (pid 256) sends a
// notifying message, and the handler must be told it came from pid 256 —
// with a one-byte pid on the wire it was told pid 0.
func TestNotifyNamesSenderPast255(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		buf, _ := recv.Malloc(mem.PageSize)
		if err := recv.Export(p, 9, buf, mem.PageSize, nil, true); err != nil {
			t.Fatal(err)
		}
		var from ProcID
		recv.RegisterHandler(9, func(f ProcID, _ uint32, _, _ int) { from = f })
		pidsUsed(t, p, c.Nodes[0], 256)
		send, _ := c.Nodes[0].NewProcess(p)
		dest, _, err := send.Import(p, 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(mem.PageSize)
		if err := send.SendMsgSync(p, src, dest, 4, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if want := (ProcID{Node: 0, Pid: 256}); from != want {
			t.Errorf("handler told from=%+v, want %+v", from, want)
		}
	})
}

// TestNotifyExtentBesideDeadSender: sender pid 0 is killed once 2 of
// the 8 pages of a notifying message have landed, so its message never
// finishes. Pid 256 then sends 64 bytes at offset 12 288, and the handler
// must be told exactly that extent — with a one-byte pid on the wire and a
// receiver that accumulated extents per sender, it merged into pid 0's
// leftover and was told offset 0 and the dead sender's pages plus 64
// bytes.
func TestNotifyExtentBesideDeadSender(t *testing.T) {
	const size = 8 * mem.PageSize
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 9, buf, size, nil, true); err != nil {
			t.Fatal(err)
		}
		offset, length := -1, -1
		recv.RegisterHandler(9, func(_ ProcID, _ uint32, off, n int) { offset, length = off, n })
		send := func() (*Process, ProxyAddr, mem.VirtAddr) {
			proc, _ := c.Nodes[0].NewProcess(p)
			dest, _, err := proc.Import(p, 1, 9)
			if err != nil {
				t.Fatal(err)
			}
			src, _ := proc.Malloc(size)
			return proc, dest, src
		}

		dead, dest, src := send()
		if _, err := dead.SendMsg(p, src, dest, size, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		for nodeCounter(t, c.Nodes[1], "lcp_bytes_in") < 2*mem.PageSize {
			p.Sleep(sim.Micros(1))
		}
		c.Nodes[0].KillProcess(dead.Pid)
		p.Sleep(sim.Millisecond)

		pidsUsed(t, p, c.Nodes[0], 256)
		late, dest, src := send()
		if late.Pid != 256 {
			t.Fatalf("sender pid %d, want 256", late.Pid)
		}
		if err := late.SendMsgSync(p, src, dest+3*mem.PageSize, 64, SendOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if offset != 3*mem.PageSize || length != 64 {
			t.Errorf("handler told offset %d, length %d; want %d, 64", offset, length, 3*mem.PageSize)
		}
	})
}
