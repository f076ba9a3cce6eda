// Package bench contains the workload generators, parameter sweeps and
// measurement harnesses that regenerate every figure and table of the
// paper's evaluation (§5-§7). Every run is a cell (cell.go): a fresh
// observed engine, the model built on it, the workload process running
// the paper's benchmark protocol, and the run's own bottleneck report.
// Experiments report the same series the paper plots; sweeps file their
// cells in a sweepLog (sweep.go) that owns the table and the artifact's
// per-cell reports. A cell's result struct is its record: field tags
// render its artifact object and table row. Every cell's trace events
// feed its Run's event fingerprint (observe.go), which pins them all.
package bench

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// Pair is the canonical two-node microbenchmark setup: one process per
// node, with a receive window exported in each direction and imported by
// the peer.
type Pair struct {
	Eng  *sim.Engine
	C    *vmmc.Cluster
	A, B *vmmc.Process

	// BufA/BufB are the receive windows in A's and B's address spaces.
	BufA, BufB mem.VirtAddr
	// ToB is A's proxy address for B's window; ToA is B's for A's.
	ToB, ToA vmmc.ProxyAddr
	// SrcA, SrcB are send buffers.
	SrcA, SrcB mem.VirtAddr
	// Window is the size of each buffer.
	Window int

	// Fence windows: tiny separate exports used to detect stream
	// completion. In-order delivery per sender/receiver pair means a
	// fence message sent last is delivered last.
	FenceA, FenceB       mem.VirtAddr
	FenceToB, FenceToA   vmmc.ProxyAddr
	fenceSrcA, fenceSrcB mem.VirtAddr
	fenceSeqA, fenceSeqB byte
}

const (
	pairTagA, pairTagB   = 100, 101
	fenceTagA, fenceTagB = 102, 103
)

// RunPair boots a two-node cluster from opts (Nodes is 2; MemBytes
// defaults to 64 MB), sets up the standard pair, runs fn as the
// workload, and returns fn's error or any simulation error; the run's
// bottleneck report is then rn.Report(). The workload drives both
// processes from one simulation process — fine for request/response
// protocols; concurrent senders spawn their own processes via
// p.Engine().Go.
func (rn *Run) RunPair(opts vmmc.Options, window int, fn func(p *sim.Proc, pr *Pair) error) error {
	opts.Nodes = 2
	if opts.MemBytes == 0 {
		opts.MemBytes = 64 << 20
	}
	_, err := rn.newCell("pair").cluster(opts, "bench", func(p *sim.Proc, c *vmmc.Cluster) error {
		pr, err := setupPair(p, c, window)
		if err != nil {
			return err
		}
		return fn(p, pr)
	})
	return err
}

func setupPair(p *sim.Proc, c *vmmc.Cluster, window int) (*Pair, error) {
	a, err := c.Nodes[0].NewProcess(p)
	if err != nil {
		return nil, err
	}
	b, err := c.Nodes[1].NewProcess(p)
	if err != nil {
		return nil, err
	}
	pr := &Pair{Eng: c.Eng, C: c, A: a, B: b, Window: window}
	if pr.BufA, err = a.Malloc(window); err != nil {
		return nil, err
	}
	if pr.BufB, err = b.Malloc(window); err != nil {
		return nil, err
	}
	if pr.SrcA, err = a.Malloc(window); err != nil {
		return nil, err
	}
	if pr.SrcB, err = b.Malloc(window); err != nil {
		return nil, err
	}
	if err = a.Export(p, pairTagA, pr.BufA, window, nil, true); err != nil {
		return nil, err
	}
	if err = b.Export(p, pairTagB, pr.BufB, window, nil, true); err != nil {
		return nil, err
	}
	if pr.ToB, _, err = a.Import(p, 1, pairTagB); err != nil {
		return nil, err
	}
	if pr.ToA, _, err = b.Import(p, 0, pairTagA); err != nil {
		return nil, err
	}
	if pr.FenceA, err = a.Malloc(mem.PageSize); err != nil {
		return nil, err
	}
	if pr.FenceB, err = b.Malloc(mem.PageSize); err != nil {
		return nil, err
	}
	if pr.fenceSrcA, err = a.Malloc(mem.PageSize); err != nil {
		return nil, err
	}
	if pr.fenceSrcB, err = b.Malloc(mem.PageSize); err != nil {
		return nil, err
	}
	if err = a.Export(p, fenceTagA, pr.FenceA, mem.PageSize, nil, false); err != nil {
		return nil, err
	}
	if err = b.Export(p, fenceTagB, pr.FenceB, mem.PageSize, nil, false); err != nil {
		return nil, err
	}
	if pr.FenceToB, _, err = a.Import(p, 1, fenceTagB); err != nil {
		return nil, err
	}
	if pr.FenceToA, _, err = b.Import(p, 0, fenceTagA); err != nil {
		return nil, err
	}
	// Warm the software TLBs so no miss interrupts land on the timed path
	// (§5.3: "we make sure that it is present in the LANai software TLB").
	if err = pr.warm(p); err != nil {
		return nil, err
	}
	return pr, nil
}

// warm sends one full-window message in each direction and waits for both
// to land, so the software TLBs are hot and nothing is in flight when the
// measurement starts.
func (pr *Pair) warm(p *sim.Proc) error {
	const marker = 0xA5
	if err := pr.A.Write(pr.SrcA+mem.VirtAddr(pr.Window-1), []byte{marker}); err != nil {
		return err
	}
	if err := pr.B.Write(pr.SrcB+mem.VirtAddr(pr.Window-1), []byte{marker}); err != nil {
		return err
	}
	if err := pr.A.SendMsgSync(p, pr.SrcA, pr.ToB, pr.Window, vmmc.SendOptions{}); err != nil {
		return fmt.Errorf("warmup A->B: %w", err)
	}
	if err := pr.B.SendMsgSync(p, pr.SrcB, pr.ToA, pr.Window, vmmc.SendOptions{}); err != nil {
		return fmt.Errorf("warmup B->A: %w", err)
	}
	pr.A.SpinByte(p, pr.BufA+mem.VirtAddr(pr.Window-1), marker)
	pr.B.SpinByte(p, pr.BufB+mem.VirtAddr(pr.Window-1), marker)
	return nil
}
