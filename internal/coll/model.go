// Algorithm selection. The all-reduce has a latency-bound and a
// bandwidth-bound implementation and picks between them with a calibrated
// cost model derived from the platform profile: the binomial tree costs
// O(log n) message latencies, the ring costs O(n) latencies but streams
// the payload at full bandwidth in n-th size blocks. The crossover falls
// out of the same constants the simulator charges, so Auto tracks the
// measured optimum.
//
// The model follows the credited slot protocol's actual critical path
// (see coll.go and docs/COLLECTIVES.md, "Calibrating the cost model"):
//
//   - Alpha: the full fixed cost of one payload message from library
//     post to the receiver's recvPayload returning — send post, LCP
//     pickup, fabric traversal, receive handling, interrupt + signal
//     delivery, the receiver's copy call, and the credit-return signal.
//   - per-byte: the host-to-LANai DMA (the sender's SendMsgSync blocks
//     on it) is serial with the receiver's bounce-buffer bcopy — a
//     message's bytes cross both, so the streaming rate is the harmonic
//     combination of the two, not the DMA rate alone.
//   - drain: the final packet's store-and-forward tail (wire out, wire
//     in, deposit DMA) cannot overlap anything and is paid per message.
//   - Gamma: when one transfer spans several credited chunks, chunk k+1
//     overlaps chunk k's receive processing; the pipeline bottleneck is
//     the receiver CPU stage (interrupt, signal, copy, credit), so
//     trailing chunks cost Gamma plus the copy time, not full Alpha.
package coll

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
)

type simProc = sim.Proc

// Algorithm selects an all-reduce implementation.
type Algorithm int

const (
	// Auto picks tree or ring from the cost model per call.
	Auto Algorithm = iota
	// Tree is the binomial tree: O(log n) rounds, whole payload per
	// round. Wins when per-message latency dominates.
	Tree
	// Ring is the ring: O(n) rounds, 1/n-th payload per round. Wins when
	// bandwidth dominates.
	Ring
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Tree:
		return "tree"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Kind names a collective operation for cost estimation.
type Kind int

// KAllReduce is the all-reduce, the only operation the model estimates.
const KAllReduce Kind = 0

// CostModel are the constants the estimates are built from.
type CostModel struct {
	// Alpha is the full fixed cost of one credited payload message:
	// library post, LCP pickup and injection, wire and switch latency,
	// receive handling, interrupt entry and signal delivery, the
	// receiver's copy-out call, and the credit-return signal.
	Alpha sim.Time
	// Gamma is the receiver-CPU share of Alpha (notification delivery,
	// copy call, credit return). It is the steady-state per-chunk cost
	// when consecutive chunks of one transfer pipeline: the sender's DMA
	// of chunk k+1 overlaps the receiver's processing of chunk k, so
	// only the receiver stage remains on the critical path.
	Gamma sim.Time
	// BytesPerSec is the streaming payload rate of a single message:
	// the host-to-LANai DMA (§5.2's 82 MB/s limit) in series with the
	// receiver's bounce-buffer bcopy (§5.4's ~50 MB/s) — every payload
	// byte crosses both before recvPayload returns.
	BytesPerSec float64
	// DrainBytesPerSec is the store-and-forward rate of the final
	// packet's tail — net send, net receive, and deposit DMA — which
	// cannot overlap the stages above.
	DrainBytesPerSec float64
	// PacketBytes is the LCP's long-send chunking unit (the 4 KB
	// transfer unit of §5.2); at most one packet's worth of drain is
	// exposed per message.
	PacketBytes int
	// CombineBytesPerSec is the reduction combine rate, bounded by host
	// memory bandwidth (the ~50 MB/s bcopy rate, §5.4).
	CombineBytesPerSec float64
}

// ModelFromProfile composes the model constants from the platform
// profile the simulator itself charges. The decomposition mirrors the
// credited slot protocol's critical path; docs/COLLECTIVES.md describes
// how it was validated against the measured collsweep cells.
func ModelFromProfile(prof hw.Profile) CostModel {
	// One short-send post from the host library: argument checks plus
	// the descriptor writes over PCI. Paid once to post the payload and
	// again by the receiver returning the flow-control credit.
	post := prof.LibSendCost + 8*prof.PCIWriteCost
	// LCP send side: pick up the request, prepare the chunk.
	lcpSend := prof.LCPDispatch + prof.LCPScanPerQueue + prof.LCPLongSendSetup + prof.LCPHeaderPrep
	// Fabric: engine setups and two switch hops.
	fabric := prof.NetSend.Setup + 2*prof.SwitchLatency + prof.NetRecv.Setup
	// LCP receive side through the deposit DMA and completion word.
	lcpRecv := prof.LCPRecvPacket + prof.LANaiToHost.Setup + prof.LCPCompletion
	// Host notification path plus the receiver's copy call and credit.
	gamma := prof.InterruptCost + prof.SignalCost + prof.BcopySetup + post
	alpha := post + prof.HostToLANai.Setup + lcpSend + fabric + lcpRecv + gamma
	perByte := 1/prof.HostToLANai.Rate + 1/prof.BcopyRate
	drain := 1/prof.NetSend.Rate + 1/prof.NetRecv.Rate + 1/prof.LANaiToHost.Rate
	return CostModel{
		Alpha:              alpha,
		Gamma:              gamma,
		BytesPerSec:        1 / perByte,
		DrainBytesPerSec:   1 / drain,
		PacketBytes:        4 << 10,
		CombineBytesPerSec: prof.BcopyRate,
	}
}

// bytesTime converts n bytes at rate bytes/sec into simulated time.
func bytesTime(n int, rate float64) sim.Time {
	return sim.Time(float64(n) / rate * float64(sim.Second))
}

// xfer estimates one credited payload message of n bytes (n <= chunk):
// fixed cost, streamed bytes, and the final packet's drain tail.
func (m CostModel) xfer(n int) sim.Time {
	p := n
	if p > m.PacketBytes {
		p = m.PacketBytes
	}
	return m.Alpha + bytesTime(n, m.BytesPerSec) + bytesTime(p, m.DrainBytesPerSec)
}

// xferChunked estimates moving an n-byte payload to one peer as
// chunk-sized credited messages. The first chunk pays the full path;
// each later chunk pipelines behind the receiver-CPU stage, costing
// Gamma plus its copy-out time. This also charges blocks larger than
// the slot size their per-chunk fixed costs — the ring sends bytes/n
// blocks that span several slots once payloads are large.
func (m CostModel) xferChunked(n, chunk int) sim.Time {
	if n <= 0 {
		return 0
	}
	if n <= chunk {
		return m.xfer(n)
	}
	msgs := chunksOf(n, chunk)
	return m.xfer(chunk) + sim.Time(msgs-1)*m.Gamma + bytesTime(n-chunk, m.CombineBytesPerSec)
}

// comb estimates combining an n-byte vector into an accumulator.
func (m CostModel) comb(n int) sim.Time {
	return bytesTime(n, m.CombineBytesPerSec)
}

func log2ceil(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// chunksOf is how many slot-sized messages an n-byte payload takes.
func chunksOf(n, chunk int) int {
	if n <= 0 {
		return 0
	}
	return (n + chunk - 1) / chunk
}

// Estimate predicts the completion time of one all-reduce (kind is
// KAllReduce) over n ranks and `bytes` payload bytes, with payloads
// chunked into `chunk`-byte messages.
func (m CostModel) Estimate(kind Kind, algo Algorithm, n, bytes, chunk int) sim.Time {
	if n <= 1 {
		return 0
	}
	if algo == Tree {
		// Each of the log n reduce rounds moves and folds the whole
		// payload, and each of the log n broadcast rounds moves it again.
		x := m.xferChunked(bytes, chunk)
		return sim.Time(log2ceil(n)) * (2*x + m.comb(bytes))
	}
	// Reduce-scatter then ring all-gather, in n-th size blocks.
	block := bytes / n
	x := m.xferChunked(block, chunk)
	return sim.Time(n-1)*(x+m.comb(block)) + sim.Time(n-1)*x
}

// Choose resolves Auto to the cheaper of Tree and Ring for this call.
// Near the crossover the two estimates sit within measurement noise of
// each other, and a naive <= comparison flips the pick when a
// calibration nudges either estimate by a fraction of a percent —
// churning every pinned artifact downstream. Tree is therefore the
// incumbent: Ring must beat it by more than a 10% margin to be chosen.
// The margin is integer arithmetic on sim.Time (ns), so the decision
// is exactly reproducible across platforms.
func (m CostModel) Choose(kind Kind, n, bytes, chunk int) Algorithm {
	treeEst := m.Estimate(kind, Tree, n, bytes, chunk)
	ringEst := m.Estimate(kind, Ring, n, bytes, chunk)
	if ringEst*10 < treeEst*9 {
		return Ring
	}
	return Tree
}

// resolve maps a caller's all-reduce algorithm request to a concrete
// algorithm.
func (c *Comm) resolve(algo Algorithm, bytes int) Algorithm {
	if algo != Auto {
		return algo
	}
	return c.g.model.Choose(KAllReduce, c.g.n, bytes, slotBytes)
}
