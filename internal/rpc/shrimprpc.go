package rpc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/shrimp"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// vRPC on SHRIMP (§5.4): the platform the library was tuned for, where it
// achieves a 33 us round trip. Same SunRPC wire format, same one copy per
// receive; the transport is the hardware deliberate update and there is
// no untuned-port overhead.

// ShrimpServer is a vRPC server on a SHRIMP node.
type ShrimpServer struct {
	sys      *shrimp.System
	proc     *shrimp.Process
	node     int
	reqBuf   mem.VirtAddr
	handlers map[procKey]Handler

	expectSeq  uint32
	replyTo    shrimp.ProxyAddr
	replyReady bool
	replySeq   uint32
	replySrc   mem.VirtAddr

	Calls int64
}

// ShrimpRPCTags: well-known export tags.
const (
	shrimpReqTag = 0xE000
	shrimpRepTag = 0xE001
)

// NewShrimpServer exports a single request window on the node.
func NewShrimpServer(p *sim.Proc, sys *shrimp.System, node int) (*ShrimpServer, error) {
	proc := sys.Nodes[node].NewProcess()
	buf, err := proc.Malloc(SlotBytes)
	if err != nil {
		return nil, err
	}
	src, err := proc.Malloc(SlotBytes)
	if err != nil {
		return nil, err
	}
	if err := proc.Export(p, shrimpReqTag, buf, SlotBytes, nil); err != nil {
		return nil, err
	}
	return &ShrimpServer{
		sys:       sys,
		proc:      proc,
		node:      node,
		reqBuf:    buf,
		handlers:  make(map[procKey]Handler),
		expectSeq: 1,
		replySeq:  1,
		replySrc:  src,
	}, nil
}

// Register installs a handler.
func (s *ShrimpServer) Register(prog, vers, proc uint32, h Handler) {
	s.handlers[procKey{prog, vers, proc}] = h
}

// Start runs the polling server loop.
func (s *ShrimpServer) Start() {
	s.sys.Eng.Go(fmt.Sprintf("vrpc:shrimp:%d", s.node), func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			if !s.serveOne(p) {
				s.sys.Nodes[s.node].Activity.Wait(p)
				p.Sleep(pollInterval)
			}
		}
	})
}

func (s *ShrimpServer) serveOne(p *sim.Proc) bool {
	raw, ok := slotMessage(s.proc.AS, s.reqBuf, s.expectSeq)
	if !ok {
		return false
	}
	s.expectSeq++
	s.Calls++

	hostBcopy(p, len(raw))
	p.Sleep(serverStub)

	hdr, args, err := xdr.DecodeCall(raw[4:])
	clientNode := int(binary.BigEndian.Uint32(raw[0:]))
	p.Sleep(xdrCost(len(raw)))

	if !s.replyReady {
		dest, _, ierr := s.proc.Import(p, clientNode, shrimpRepTag)
		if ierr != nil {
			return true
		}
		s.replyTo = dest
		s.replyReady = true
	}

	enc := dispatch(p, s.handlers, hdr, args, err)
	p.Sleep(xdrCost(enc.Len()))
	// A reply that cannot be sent is dropped, as UDP SunRPC would.
	_ = sendShrimp(p, s.proc, s.replySrc, s.replyTo, enc.Bytes(), &s.replySeq, nil)
	return true
}

// sendShrimp frames a message and sends it as one hardware deliberate
// update.
func sendShrimp(p *sim.Proc, proc *shrimp.Process, src mem.VirtAddr, dest shrimp.ProxyAddr, payload []byte, seq *uint32, trailer []byte) error {
	n, err := frameMessage(proc.AS, src, payload, seq, trailer)
	if err != nil {
		return err
	}
	return proc.SendDeliberate(p, src, dest, n)
}

// hostBcopy charges the SunRPC receive copy at the paper's ~50 MB/s.
func hostBcopy(p *sim.Proc, n int) {
	p.Sleep(sim.Micros(0.2) + sim.Time(float64(n)/50e6*float64(sim.Second)))
}

// ShrimpClient is a vRPC client on a SHRIMP node.
type ShrimpClient struct {
	sys     *shrimp.System
	proc    *shrimp.Process
	node    int
	dest    shrimp.ProxyAddr
	repBuf  mem.VirtAddr
	src     mem.VirtAddr
	seq     uint32
	repSeq  uint32
	nextXID uint32
}

// DialShrimp connects a client on clientNode to the server on serverNode.
func DialShrimp(p *sim.Proc, sys *shrimp.System, clientNode, serverNode int) (*ShrimpClient, error) {
	proc := sys.Nodes[clientNode].NewProcess()
	dest, _, err := proc.Import(p, serverNode, shrimpReqTag)
	if err != nil {
		return nil, err
	}
	repBuf, err := proc.Malloc(SlotBytes)
	if err != nil {
		return nil, err
	}
	src, err := proc.Malloc(SlotBytes)
	if err != nil {
		return nil, err
	}
	if err := proc.Export(p, shrimpRepTag, repBuf, SlotBytes, nil); err != nil {
		return nil, err
	}
	return &ShrimpClient{
		sys:     sys,
		proc:    proc,
		node:    clientNode,
		dest:    dest,
		repBuf:  repBuf,
		src:     src,
		seq:     1,
		repSeq:  1,
		nextXID: 1,
	}, nil
}

// Call performs a synchronous RPC over the SHRIMP transport.
func (c *ShrimpClient) Call(p *sim.Proc, prog, vers, proc uint32, args func(*xdr.Encoder), res func(*xdr.Decoder) error) error {
	p.Sleep(clientStub)
	xid := c.nextXID
	c.nextXID++
	enc := xdr.EncodeCall(xdr.CallHeader{XID: xid, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		args(enc)
	}
	p.Sleep(xdrCost(enc.Len()))

	trailer := make([]byte, 4)
	binary.BigEndian.PutUint32(trailer, uint32(c.node))
	if err := sendShrimp(p, c.proc, c.src, c.dest, enc.Bytes(), &c.seq, trailer); err != nil {
		return err
	}

	var raw []byte
	for {
		m, ok := slotMessage(c.proc.AS, c.repBuf, c.repSeq)
		if ok {
			raw = m
			break
		}
		c.sys.Nodes[c.node].Activity.Wait(p)
		p.Sleep(pollInterval)
	}
	c.repSeq++

	hostBcopy(p, len(raw))
	p.Sleep(xdrCost(len(raw)))
	return decodeReply(raw, xid, res)
}
