package main

import (
	"bytes"
	"fmt"

	"repro/internal/lanai"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

const (
	alltoallNodes = 32
	alltoallMsg   = 1024
	// importPace caps concurrent import handshakes: they ride the shared
	// Ethernet, which congests past the daemons' retry budget if every
	// node fires at once (scalesweep's staged start-up).
	importPace = 8
)

// Why: 32 nodes on a switch chain with the reliable link layer: the only
// workload with retransmit-timer arm/cancel churn, a deep event heap, trunk
// queueing, and central mapping plus paced imports in setup_s
var alltoallWorkload = &workload{
	name:      "alltoall",
	opsPerSec: 12000,
	unit:      alltoallNodes * (alltoallNodes - 1),
	opts:      func() vmmc.Options { return alltoallOpts(alltoallNodes) },
	build:     buildAlltoall,
}

// alltoallOpts is scalesweep's configuration: reliability on, with the
// delayed ack and the patient retransmit clamp a deep switch chain needs.
func alltoallOpts(nodes int) vmmc.Options {
	rel := lanai.DefaultReliability()
	rel.AckDelay = 25 * sim.Microsecond
	rel.MaxRTO = 50 * sim.Millisecond
	rel.MaxRetries = 12
	return vmmc.Options{
		Nodes:       nodes,
		MemBytes:    (nodes + 64) * mem.PageSize,
		Reliable:    true,
		Reliability: &rel,
	}
}

// alltoall is the ring-shifted exchange: in step s of a round node i sends
// 1 KB to node (i+s) mod n, waits for the message of node (i-s) mod n and
// joins the step barrier. Each node exports one page per sender.
type alltoall struct {
	e     *env
	n     int
	procs []*vmmc.Process
	bufs  []mem.VirtAddr     // node i's receive window, one page per sender
	srcs  []mem.VirtAddr     // node i's send page
	dests [][]vmmc.ProxyAddr // dests[i][j]: node i's import of j's page for i
	base  []byte             // seeded payload; the last byte is the round marker
	round int
	step  *barrier
}

func buildAlltoall(p *sim.Proc, c *vmmc.Cluster, e *env) (runner, error) {
	n := len(c.Nodes)
	at := &alltoall{
		e: e, n: n,
		procs: make([]*vmmc.Process, n),
		bufs:  make([]mem.VirtAddr, n),
		srcs:  make([]mem.VirtAddr, n),
		dests: make([][]vmmc.ProxyAddr, n),
		base:  make([]byte, alltoallMsg),
		step:  newBarrier(c.Eng, n),
	}
	rng := e.seed ^ 0x61746f61
	fill(&rng, at.base)

	exported := newBarrier(c.Eng, n)
	importing := 0
	importDone := sim.NewCond(c.Eng)
	err := fanOut(p, "alltoall:setup", n, func(i int, fp *sim.Proc) error {
		proc, err := c.Nodes[i].NewProcess(fp)
		if err != nil {
			return err
		}
		at.procs[i] = proc
		if at.bufs[i], err = proc.Malloc(n * mem.PageSize); err != nil {
			return err
		}
		if at.srcs[i], err = proc.Malloc(mem.PageSize); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			page := at.bufs[i] + mem.VirtAddr(j*mem.PageSize)
			if err := proc.Export(fp, uint32(j+1), page, mem.PageSize, nil, false); err != nil {
				return err
			}
		}
		exported.await(fp)
		for importing >= importPace {
			importDone.Wait(fp)
		}
		importing++
		defer func() { importing--; importDone.Signal() }()
		at.dests[i] = make([]vmmc.ProxyAddr, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if at.dests[i][j], _, err = proc.Import(fp, j, uint32(i+1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One unmeasured round warms every pair's translations and RTT state.
	if err := at.rounds(p, 1, nil); err != nil {
		return nil, err
	}
	return at, nil
}

// rounds runs r rounds on every node. Node 0's step times go to lat.
func (at *alltoall) rounds(p *sim.Proc, r int, lat *[]sim.Time) error {
	n, first := at.n, at.round
	rec := at.e.rec
	err := fanOut(p, "alltoall:node", n, func(i int, fp *sim.Proc) error {
		proc := at.procs[i]
		payload := append([]byte(nil), at.base...)
		for round := first + 1; round <= first+r; round++ {
			mark := marker(round)
			payload[alltoallMsg-1] = mark
			if err := proc.Write(at.srcs[i], payload); err != nil {
				return err
			}
			for s := 1; s < n; s++ {
				to, from := (i+s)%n, (i-s+n)%n
				op := int64(round*n+s)*int64(n) + int64(i)
				t0 := fp.Now()
				root := 0
				if i == 0 {
					root = rec.begin(fp, 0, op, "loadgen", "step")
				}
				sp := rec.begin(fp, root, op, "vmmc", "SendMsg")
				seq, err := proc.SendMsg(fp, at.srcs[i], at.dests[i][to], alltoallMsg, vmmc.SendOptions{})
				rec.end(fp, sp)
				if err != nil {
					return err
				}
				sp = rec.begin(fp, root, op, "vmmc", "WaitSend")
				err = proc.WaitSend(fp, seq)
				rec.end(fp, sp)
				if err != nil {
					return err
				}
				flag := at.bufs[i] + mem.VirtAddr(from*mem.PageSize+alltoallMsg-1)
				sp = rec.begin(fp, root, op, "vmmc", "PollUntil")
				proc.PollUntil(fp, func() bool {
					b, err := proc.Read(flag, 1)
					return err == nil && b[0] == mark
				})
				rec.end(fp, sp)
				at.step.await(fp)
				if i == 0 {
					rec.end(fp, root)
					if lat != nil {
						*lat = append(*lat, fp.Now()-t0)
					}
				}
			}
		}
		return nil
	})
	at.round += r
	return err
}

func (at *alltoall) batch(p *sim.Proc, ops int) error {
	perRound := at.n * (at.n - 1)
	if err := at.rounds(p, ops/perRound, &at.e.lat); err != nil {
		return err
	}
	at.e.attempted += int64(ops)
	// Every pair's page must hold the final round's message: the seeded
	// payload with that round's marker.
	want := append([]byte(nil), at.base...)
	want[alltoallMsg-1] = marker(at.round)
	for i, proc := range at.procs {
		for j := range at.procs {
			if j == i {
				continue
			}
			got, err := proc.Read(at.bufs[i]+mem.VirtAddr(j*mem.PageSize), alltoallMsg)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("node %d holds a wrong message from node %d after round %d", i, j, at.round)
			}
		}
	}
	at.e.ok += int64(ops)
	at.e.okBytes += int64(ops) * alltoallMsg
	return nil
}

func (at *alltoall) finish(*sim.Proc) error { return nil }

func (at *alltoall) layer(*sim.Proc, metrics, *section) error { return nil }
