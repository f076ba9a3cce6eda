package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// Export tags of the two-node workloads (node-global, so the probes use
// their own range).
const (
	tagToA, tagToB = 100, 101
	tagStream      = 110
)

const pingBytes = 4

// Why: the paper's headline latency: host cost is almost pure sim dispatch
// plus hostcpu spin sampling on the vmmc short-send path, and nothing else
var pingpongWorkload = &workload{
	name:      "pingpong",
	opsPerSec: 27000,
	unit:      1,
	opts:      func() vmmc.Options { return vmmc.Options{Nodes: 2, MemBytes: 1 << 20} },
	build:     buildPingpong,
}

// pingpong is the closed-loop 4-byte echo: one client on node 0, one
// echoing process on node 1, synchronous sends, spin on the last byte.
type pingpong struct {
	e            *env
	a, b         *vmmc.Process
	bufA, bufB   mem.VirtAddr
	srcA, srcB   mem.VirtAddr
	toA, toB     vmmc.ProxyAddr
	rng          uint64
	seq          int // round trips issued, warm-up included
	echoing      bool
	stop         bool
	echoErr      error
	echoFinished *sim.Cond
}

func buildPingpong(p *sim.Proc, c *vmmc.Cluster, e *env) (runner, error) {
	pp := &pingpong{e: e, rng: e.seed ^ 0x70696e67, echoFinished: sim.NewCond(c.Eng)}
	var err error
	if pp.a, err = c.Nodes[0].NewProcess(p); err != nil {
		return nil, err
	}
	if pp.b, err = c.Nodes[1].NewProcess(p); err != nil {
		return nil, err
	}
	for _, buf := range []*mem.VirtAddr{&pp.bufA, &pp.srcA} {
		if *buf, err = pp.a.Malloc(mem.PageSize); err != nil {
			return nil, err
		}
	}
	for _, buf := range []*mem.VirtAddr{&pp.bufB, &pp.srcB} {
		if *buf, err = pp.b.Malloc(mem.PageSize); err != nil {
			return nil, err
		}
	}
	if err = pp.a.Export(p, tagToA, pp.bufA, mem.PageSize, nil, false); err != nil {
		return nil, err
	}
	if err = pp.b.Export(p, tagToB, pp.bufB, mem.PageSize, nil, false); err != nil {
		return nil, err
	}
	if pp.toB, _, err = pp.a.Import(p, 1, tagToB); err != nil {
		return nil, err
	}
	if pp.toA, _, err = pp.b.Import(p, 0, tagToA); err != nil {
		return nil, err
	}
	// Warm both directions from this one process so nothing on the timed
	// path is a first touch.
	pp.seq++
	warm := []byte{0, 0, 0, marker(pp.seq)}
	for _, d := range []struct {
		from, to *vmmc.Process
		src, buf mem.VirtAddr
		dest     vmmc.ProxyAddr
	}{{pp.a, pp.b, pp.srcA, pp.bufB, pp.toB}, {pp.b, pp.a, pp.srcB, pp.bufA, pp.toA}} {
		if err = d.from.Write(d.src, warm); err != nil {
			return nil, err
		}
		if err = d.from.SendMsgSync(p, d.src, d.dest, pingBytes, vmmc.SendOptions{}); err != nil {
			return nil, err
		}
		d.to.SpinByte(p, d.buf+pingBytes-1, warm[pingBytes-1])
	}
	return pp, nil
}

// marker is the flag byte of round trip i: never 0, and different for
// consecutive round trips.
func marker(i int) byte { return byte(i%250 + 1) }

// echo is node 1's loop, from round trip next on: wait for the marker,
// send the four bytes back unchanged.
func (pp *pingpong) echo(bp *sim.Proc, next int) {
	defer func() { pp.echoing = false; pp.echoFinished.Broadcast() }()
	rec := pp.e.rec
	arrived := func() bool {
		if pp.stop {
			return true
		}
		b, err := pp.b.Read(pp.bufB+pingBytes-1, 1)
		return err == nil && b[0] == marker(next)
	}
	for ; ; next++ {
		sp := rec.begin(bp, 0, int64(next), "vmmc", "SpinUntil")
		pp.b.SpinUntil(bp, arrived)
		rec.end(bp, sp)
		if pp.stop {
			return
		}
		msg, err := pp.b.Read(pp.bufB, pingBytes)
		if err == nil {
			err = pp.b.Write(pp.srcB, msg)
		}
		if err == nil {
			sp = rec.begin(bp, 0, int64(next), "vmmc", "SendMsgSync")
			err = pp.b.SendMsgSync(bp, pp.srcB, pp.toA, pingBytes, vmmc.SendOptions{})
			rec.end(bp, sp)
		}
		if err != nil {
			pp.echoErr = err
			return
		}
	}
}

func (pp *pingpong) batch(p *sim.Proc, n int) error {
	if !pp.echoing {
		pp.echoing = true
		next := pp.seq + 1
		p.Engine().Go("pingpong:echo", func(bp *sim.Proc) { pp.echo(bp, next) })
	}
	rec := pp.e.rec
	var msg [pingBytes]byte
	for i := 0; i < n; i++ {
		pp.seq++
		fill(&pp.rng, msg[:pingBytes-1])
		msg[pingBytes-1] = marker(pp.seq)
		op := rec.begin(p, 0, int64(pp.seq), "loadgen", "roundtrip")
		t0 := p.Now()
		if err := pp.a.Write(pp.srcA, msg[:]); err != nil {
			return err
		}
		sp := rec.begin(p, op, int64(pp.seq), "vmmc", "SendMsgSync")
		err := pp.a.SendMsgSync(p, pp.srcA, pp.toB, pingBytes, vmmc.SendOptions{})
		rec.end(p, sp)
		if err != nil {
			return err
		}
		sp = rec.begin(p, op, int64(pp.seq), "vmmc", "SpinByte")
		pp.a.SpinByte(p, pp.bufA+pingBytes-1, msg[pingBytes-1])
		rec.end(p, sp)
		rtt := p.Now() - t0
		rec.end(p, op)
		pp.e.attempted++
		got, err := pp.a.Read(pp.bufA, pingBytes)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, msg[:]) {
			return fmt.Errorf("round trip %d echoed % x, sent % x", pp.seq, got, msg)
		}
		pp.e.ok++
		pp.e.okBytes += 2 * pingBytes
		pp.e.lat = append(pp.e.lat, rtt/2)
	}
	return pp.echoErr
}

func (pp *pingpong) finish(p *sim.Proc) error {
	pp.stop = true
	for pp.echoing {
		pp.echoFinished.Wait(p)
	}
	return pp.echoErr
}

func (pp *pingpong) layer(_ *sim.Proc, m metrics, s *section) error {
	p50, _ := percentile(s.lat, 0.50)
	const paperLatencyUS = 9.8
	m["accuracy.latency_err_frac"] = math.Abs(p50.Micros()-paperLatencyUS) / paperLatencyUS
	return nil
}
