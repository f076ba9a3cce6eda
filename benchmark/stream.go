package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

const (
	streamMsg   = 64 << 10
	streamDepth = 4 // messages outstanding; also the slot count on both sides
	streamTail  = 1 << 20
)

// Why: the paper's bandwidth figure: long-send chunking, bus host DMA, lanai
// send/recv DMA and the myrinet link do the work and spin sampling almost
// none, so a short-path gain that costs bulk shows
var streamWorkload = &workload{
	name:      "stream",
	opsPerSec: 2300,
	unit:      streamDepth,
	opts:      func() vmmc.Options { return vmmc.Options{Nodes: 2, MemBytes: 4 << 20} },
	build:     buildStream,
}

// stream sends 64 KB messages one way, node 0 to node 1, into a window of
// streamDepth slots. Message k goes to slot k%streamDepth with k in its
// first eight bytes and a per-reuse marker in its last byte; the rest of
// each slot is the seeded payload written once at set-up.
type stream struct {
	e        *env
	a, b     *vmmc.Process
	src, win mem.VirtAddr
	dest     vmmc.ProxyAddr
	k        int // messages posted, warm-up included
	seqs     [streamDepth]uint32
	posted   [streamDepth]sim.Time
}

func buildStream(p *sim.Proc, c *vmmc.Cluster, e *env) (runner, error) {
	st := &stream{e: e}
	var err error
	if st.a, err = c.Nodes[0].NewProcess(p); err != nil {
		return nil, err
	}
	if st.b, err = c.Nodes[1].NewProcess(p); err != nil {
		return nil, err
	}
	const window = streamDepth * streamMsg
	if st.src, err = st.a.Malloc(window); err != nil {
		return nil, err
	}
	if st.win, err = st.b.Malloc(window); err != nil {
		return nil, err
	}
	payload := make([]byte, window)
	rng := e.seed ^ 0x73747265
	fill(&rng, payload)
	if err = st.a.Write(st.src, payload); err != nil {
		return nil, err
	}
	if err = st.b.Export(p, tagStream, st.win, window, nil, false); err != nil {
		return nil, err
	}
	if st.dest, _, err = st.a.Import(p, 1, tagStream); err != nil {
		return nil, err
	}
	// One message per slot warms the TLBs on both sides.
	if err = st.send(p, streamDepth); err != nil {
		return nil, err
	}
	return st, nil
}

func slotOff(k int) mem.VirtAddr { return mem.VirtAddr(k % streamDepth * streamMsg) }

// send posts n messages with at most streamDepth outstanding while a
// receiver process on node 1 watches each one's last byte arrive, and
// returns once the receiver has seen them all (the per-batch fence).
func (st *stream) send(p *sim.Proc, n int) error {
	rec := st.e.rec
	first := st.k
	received := sim.NewCond(p.Engine())
	seen := 0
	p.Engine().Go("stream:recv", func(bp *sim.Proc) {
		for k := first; k < first+n; k++ {
			flag, want := st.win+slotOff(k)+streamMsg-1, marker(k/streamDepth)
			st.b.PollUntil(bp, func() bool {
				b, err := st.b.Read(flag, 1)
				return err == nil && b[0] == want
			})
			st.e.lat = append(st.e.lat, bp.Now()-st.posted[k%streamDepth])
			seen++
			received.Broadcast()
		}
	})
	var head [8]byte
	for ; st.k < first+n; st.k++ {
		k, slot := st.k, st.k%streamDepth
		op := rec.begin(p, 0, int64(k), "loadgen", "message")
		if k >= first+streamDepth {
			// Flow control: the slot is reused once the receiver has seen
			// its previous message. The benchmark's own condition variable
			// stands in for a credit message, so the sender parks instead
			// of spinning on its completion word for a whole message time;
			// a message the receiver has seen has certainly left the
			// sender's memory, which SendDone confirms.
			for seen < k-streamDepth-first+1 {
				received.Wait(p)
			}
			if done, err := st.a.SendDone(st.seqs[slot]); err != nil || !done {
				return fmt.Errorf("message %d delivered before its send completed (%v)", k-streamDepth, err)
			}
		}
		binary.BigEndian.PutUint64(head[:], uint64(k))
		if err := st.a.Write(st.src+slotOff(k), head[:]); err != nil {
			return err
		}
		if err := st.a.Write(st.src+slotOff(k)+streamMsg-1, []byte{marker(k / streamDepth)}); err != nil {
			return err
		}
		st.posted[slot] = p.Now()
		sp := rec.begin(p, op, int64(k), "vmmc", "SendMsg")
		seq, err := st.a.SendMsg(p, st.src+slotOff(k), st.dest+vmmc.ProxyAddr(slotOff(k)), streamMsg, vmmc.SendOptions{})
		rec.end(p, sp)
		rec.end(p, op)
		if err != nil {
			return err
		}
		st.seqs[slot] = seq
	}
	for seen < n {
		received.Wait(p)
	}
	return nil
}

func (st *stream) batch(p *sim.Proc, n int) error {
	if err := st.send(p, n); err != nil {
		return err
	}
	st.e.attempted += int64(n)
	// After the fence the receiver's window must equal the sender's slots
	// byte for byte: seeded payload, message numbers and markers.
	const window = streamDepth * streamMsg
	sent, err := st.a.Read(st.src, window)
	if err != nil {
		return err
	}
	got, err := st.b.Read(st.win, window)
	if err != nil {
		return err
	}
	if !bytes.Equal(sent, got) {
		return fmt.Errorf("receiver window differs from the seeded payload after message %d", st.k-1)
	}
	st.e.ok += int64(n)
	st.e.okBytes += int64(n) * streamMsg
	return nil
}

func (st *stream) finish(*sim.Proc) error { return nil }

// layer streams a 20 x 1 MB tail, the paper's bandwidth protocol (large
// messages posted back to back, a one-byte fence behind them), and compares
// it with the paper's 80.4 MB/s.
func (st *stream) layer(p *sim.Proc, m metrics, _ *section) error {
	const count, paperMBs = 20, 80.4
	src, err := st.a.Malloc(streamTail + mem.PageSize)
	if err != nil {
		return err
	}
	win, err := st.b.Malloc(streamTail + mem.PageSize)
	if err != nil {
		return err
	}
	if err = st.b.Export(p, tagStream+1, win, streamTail+mem.PageSize, nil, false); err != nil {
		return err
	}
	dest, _, err := st.a.Import(p, 1, tagStream+1)
	if err != nil {
		return err
	}
	fence := mem.VirtAddr(streamTail)
	if err = st.a.Write(src+fence, []byte{1}); err != nil {
		return err
	}
	// Warm the translations of the whole megabyte off the clock.
	if err = st.a.SendMsgSync(p, src, dest, streamTail, vmmc.SendOptions{}); err != nil {
		return err
	}
	t0 := p.Now()
	for i := 0; i < count; i++ {
		if _, err = st.a.SendMsg(p, src, dest, streamTail, vmmc.SendOptions{}); err != nil {
			return err
		}
	}
	if _, err = st.a.SendMsg(p, src+fence, dest+vmmc.ProxyAddr(fence), 1, vmmc.SendOptions{}); err != nil {
		return err
	}
	st.b.SpinByte(p, win+fence, 1)
	mbs := float64(count*streamTail) / (p.Now() - t0).Seconds() / 1e6
	m["accuracy.bandwidth_err_frac"] = math.Abs(mbs-paperMBs) / paperMBs
	return nil
}
