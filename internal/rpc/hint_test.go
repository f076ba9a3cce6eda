package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// frameBytes hand-builds the exact wire image of one slot message:
// [4B length][trailer][payload][4B seq] — the reference the compat
// tests compare captured window bytes against.
func frameBytes(trailer, payload []byte, seq uint32) []byte {
	total := len(trailer) + len(payload)
	msg := make([]byte, 4+total+4)
	binary.BigEndian.PutUint32(msg[0:], uint32(total))
	copy(msg[4:], trailer)
	copy(msg[4+len(trailer):], payload)
	binary.BigEndian.PutUint32(msg[4+total:], seq)
	return msg
}

func windowBytes(t *testing.T, proc *vmmc.Process, base mem.VirtAddr, n int) []byte {
	t.Helper()
	raw, err := proc.Read(base, n)
	if err != nil {
		t.Fatalf("window read: %v", err)
	}
	return raw
}

// expectedAddCall builds the exact legacy request frame for the
// procAdd(40, 2) call the compat tests issue: 8-byte node/reply-tag
// trailer (no deadline), XDR call message, trailing sequence flag.
func expectedAddCall(clientNode, slot int, xid, seq uint32) []byte {
	enc := xdr.EncodeCall(xdr.CallHeader{XID: xid, Prog: progTest, Vers: versTest, Proc: procAdd})
	enc.PutInt32(40)
	enc.PutInt32(2)
	trailer := make([]byte, 8)
	binary.BigEndian.PutUint32(trailer[0:], uint32(clientNode))
	binary.BigEndian.PutUint32(trailer[4:], uint32(repTagBase+slot))
	return frameBytes(trailer, enc.Bytes(), seq)
}

// TestVRPCHintsOffWireByteIdentical pins the compatibility matrix's
// "load hints disabled" row on both directions: the request a
// hint-capable client sends and the reply a hint-capable (but disabled)
// server returns are byte-for-byte the legacy frames — an old peer on
// either end of the connection sees an unchanged protocol.
func TestVRPCHintsOffWireByteIdentical(t *testing.T) {
	vrpcSetup(t, func(p *sim.Proc, c *Client, srv *Server) {
		if err := c.Call(p, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatal(err) // warm: first contact pays the ether-daemon import
		}
		xid, reqSeq, repSeq := c.nextXID, c.seq, srv.replySeq[0]
		var sum int32
		err := c.Call(p, progTest, versTest, procAdd,
			func(e *xdr.Encoder) { e.PutInt32(40); e.PutInt32(2) },
			func(d *xdr.Decoder) error { v, err := d.Int32(); sum = v; return err })
		if err != nil || sum != 42 {
			t.Fatalf("call err=%v sum=%d", err, sum)
		}

		wantReq := expectedAddCall(0, 0, xid, reqSeq)
		gotReq := windowBytes(t, srv.proc, srv.reqBuf, len(wantReq))
		if !bytes.Equal(gotReq, wantReq) {
			t.Errorf("request frame differs from legacy wire format:\n got %x\nwant %x", gotReq, wantReq)
		}

		rep := xdr.EncodeReply(xid, xdr.AcceptSuccess)
		rep.PutInt32(42)
		wantRep := frameBytes(nil, rep.Bytes(), repSeq)
		gotRep := windowBytes(t, c.proc, c.repBuf, len(wantRep))
		if !bytes.Equal(gotRep, wantRep) {
			t.Errorf("reply frame differs from legacy wire format:\n got %x\nwant %x", gotRep, wantRep)
		}
		if _, ok := c.LastHint(); ok {
			t.Error("client reports a load hint with hints disabled")
		}
	})
}

// TestVRPCHintsOnTrailerShape pins the enabled row: the request
// direction stays byte-identical to the legacy frame (a hint-enabled
// server changes nothing about what clients send), while the reply
// grows by exactly the 16-byte flagged trailer, which the client strips
// and surfaces via LastHint without disturbing result decoding.
func TestVRPCHintsOnTrailerShape(t *testing.T) {
	vrpcSetup(t, func(p *sim.Proc, c *Client, srv *Server) {
		srv.SetLoadHints(true)
		if err := c.Call(p, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatal(err) // warm
		}
		xid, reqSeq, repSeq := c.nextXID, c.seq, srv.replySeq[0]
		var sum int32
		err := c.Call(p, progTest, versTest, procAdd,
			func(e *xdr.Encoder) { e.PutInt32(40); e.PutInt32(2) },
			func(d *xdr.Decoder) error { v, err := d.Int32(); sum = v; return err })
		if err != nil || sum != 42 {
			t.Fatalf("call err=%v sum=%d", err, sum)
		}

		wantReq := expectedAddCall(0, 0, xid, reqSeq)
		gotReq := windowBytes(t, srv.proc, srv.reqBuf, len(wantReq))
		if !bytes.Equal(gotReq, wantReq) {
			t.Errorf("request frame changed by server-side hints:\n got %x\nwant %x", gotReq, wantReq)
		}

		// Reply: [flag|version][depth][sheds][served] then the XDR reply.
		hint := make([]byte, hintBytes)
		binary.BigEndian.PutUint32(hint[0:], hintFlag|hintVersion)
		binary.BigEndian.PutUint32(hint[4:], 0)  // queue empty at reply
		binary.BigEndian.PutUint32(hint[8:], 0)  // nothing shed
		binary.BigEndian.PutUint32(hint[12:], 2) // warm + this call
		rep := xdr.EncodeReply(xid, xdr.AcceptSuccess)
		rep.PutInt32(42)
		wantRep := frameBytes(hint, rep.Bytes(), repSeq)
		gotRep := windowBytes(t, c.proc, c.repBuf, len(wantRep))
		if !bytes.Equal(gotRep, wantRep) {
			t.Errorf("hinted reply frame:\n got %x\nwant %x", gotRep, wantRep)
		}

		h, ok := c.LastHint()
		if !ok {
			t.Fatal("no load hint surfaced")
		}
		if h.Depth != 0 || h.Sheds != 0 || h.Served != 2 {
			t.Errorf("hint = %+v, want depth=0 sheds=0 served=2", h)
		}
		if h.At != p.Now() {
			t.Errorf("hint At = %v, want receive time %v", h.At, p.Now())
		}
	})
}

// TestVRPCHintsOnRejection: the cheap rejection path carries the hint
// too — a shed is itself the load signal a router wants — and the
// typed error still surfaces unchanged.
func TestVRPCHintsOnRejection(t *testing.T) {
	vrpcSetup(t, func(p *sim.Proc, c *Client, srv *Server) {
		srv.SetLoadHints(true)
		if err := c.Call(p, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatal(err) // warm
		}
		srv.SetAdmission(func(AdmitPhase, int, sim.Time, sim.Time) bool { return false })
		err := c.CallDeadline(p, p.Now()+sim.Millisecond, progTest, versTest, procNull, nil, nil)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed call err = %v, want ErrOverloaded", err)
		}
		h, ok := c.LastHint()
		if !ok {
			t.Fatal("no hint on the rejection reply")
		}
		if h.Sheds != 1 || h.Served != 1 {
			t.Errorf("hint = %+v, want sheds=1 served=1 (the warm call)", h)
		}
	})
}
