package lanai

import (
	"errors"

	"repro/internal/sim"
)

// ErrPeerUnreachable is returned by reliable sends when the retransmit
// budget for a destination is exhausted without an acknowledgement: the
// peer is crashed, its link is dead, or the path is partitioned. The
// window's packets are discarded, and its parked senders and a send in its
// bookkeeping hold fail. A later send (after repair) opens a window that
// continues the sequence instead of restarting at zero, and whose first
// frame tells the receiver to skip ahead to it.
var ErrPeerUnreachable = errors.New("lanai: peer unreachable, retransmit budget exhausted")

// ReliableLink is the board's reliable data-link layer, the future work of
// the paper's line (VMMC-2's "reliable communication at the data link
// layer"): the paper ships without CRC-error recovery (§4.2: it "would
// complicate its design and add more software overhead"), and this layer,
// off unless EnableReliability installs it, makes that trade-off
// measurable. Its protocol is linkCore's go-back-N; ReliableLink is the
// core's port onto the board: the blocking send, where senders stall on a
// full window, the timers, and acks and retransmit rounds as continuations
// on the net-send engine and the link.
type ReliableLink struct {
	linkCore
	board      *Board
	windowFree *sim.Cond
	// Names of a retransmit round and of a delayed ack as the holder of
	// the net-send engine and the link.
	retxLabel, dackLabel string
	idle                 []*linkTx // records of finished injections, for reuse
}

// rlPerPacketCost is the LANai software cost of the link-layer bookkeeping
// on each side — the overhead §4.2 declined to pay.
const rlPerPacketCost = 500 * sim.Nanosecond

// ReliabilityConfig tunes the link layer: the knobs that large clusters
// and stall-fast heal configurations set differently.
type ReliabilityConfig struct {
	// MaxRTO caps the adaptive timeout and the exponential backoff
	// between retransmit rounds.
	MaxRTO sim.Time
	// MaxRetries is the retransmit budget: after this many timer-driven
	// rounds with no acknowledgement the destination is declared
	// unreachable and sends toward it fail with ErrPeerUnreachable.
	MaxRetries int
	// AckDelay, when positive, acknowledges an in-sequence packet the
	// rlAckEvery cadence skips AckDelay after it arrived, unless a later
	// packet forces an ack first. At zero (the default) the tail of a burst
	// is acknowledged only by the sender's timeout, a redundant
	// retransmission and the duplicate's re-ack — under sparse traffic, per
	// message. Set it below the RTO and above a burst's inter-packet gap.
	AckDelay sim.Time
}

// DefaultReliability returns a reasonable configuration.
func DefaultReliability() ReliabilityConfig {
	return ReliabilityConfig{
		MaxRTO:     2 * sim.Millisecond,
		MaxRetries: 8,
	}
}

// EnableReliability installs the link layer on the board. It must be
// called before traffic flows; it allocates the retransmit window
// buffers from board SRAM (the resource cost of reliability).
func (b *Board) EnableReliability(cfg ReliabilityConfig) (*ReliableLink, error) {
	// Window buffers: assume page-sized packets plus headers.
	if _, err := b.SRAM.Alloc(rlWindow*(4096+64), "retransmit-window"); err != nil {
		return nil, err
	}
	rl := &ReliableLink{
		board:      b,
		windowFree: sim.NewCond(b.Eng),
		retxLabel:  b.comp + ":retx",
		dackLabel:  b.comp + ":dack",
	}
	rl.linkCore = linkCore{
		self: b.NIC.ID, cfg: cfg, window: rlWindow, port: rl,
		tx:           make(map[conv]*txState),
		rxExpected:   make(map[conv]uint32),
		rxAckPending: make(map[conv]stopper),
		m:            newRLMetrics(b.Eng.Metrics(), b.comp),
	}
	b.reliable = rl
	return rl, nil
}

// Reliable returns the board's link layer, nil when disabled.
func (b *Board) Reliable() *ReliableLink { return b.reliable }

// send transmits a frame built on Board.NewFrame reliably to NIC dst,
// inside the transmit window of the given traffic class; a new window
// starts out on route. It blocks while the window is full and fails with
// ErrPeerUnreachable when the window is discarded before the frame is in
// it. The frame is the window's until it is acknowledged.
func (rl *ReliableLink) send(p *sim.Proc, dst int, route []byte, frame []byte, class int) error {
	st := rl.open(dst, class, route)
	for len(st.unacked) >= rl.window {
		rl.m.windowStalls.Add(1)
		rl.windowFree.Wait(p)
		if st.dead {
			return ErrPeerUnreachable
		}
	}
	p.Sleep(rlPerPacketCost)
	if err := rl.push(st, frame, p.Now()); err != nil || st.suspended {
		// A suspended window's route is known dead and a heal is pending:
		// buffer only. Resume retransmits the whole window on the healed
		// route, so nothing is lost by skipping the doomed injection.
		return err
	}
	rl.board.NetSend.TransferWith(p, 0, rl.board.Prof.NetSend)
	rl.board.NIC.Send(p, st.route, frame)
	return nil
}

// The port: timers are engine events, the trace is the engine's.

func (rl *ReliableLink) after(d sim.Time, fire func()) stopper { return rl.board.Eng.After(d, fire) }
func (rl *ReliableLink) wake()                                 { rl.windowFree.Broadcast() }
func (rl *ReliableLink) note(name string)                      { rl.board.Eng.TraceInstant(rl.board.comp, "rl", name) }

// fill samples a window's occupancy, 0..1; the bottleneck analyzer reads a
// window pinned near 1.0 as credit-stalled senders.
func (rl *ReliableLink) fill(st *txState) {
	rl.board.Eng.TraceCounter(rl.board.comp, "rl", "window_occupancy", float64(len(st.unacked))/rlWindow)
}

// sendAck injects an ack along route: the net-send engine at once, then
// the link; done, which may be nil, runs once the ack has left. label
// names the sender as the holder of both.
func (rl *ReliableLink) sendAck(label string, route, ack []byte, done func()) {
	t := rl.take(label)
	t.route, t.frame, t.done = route, ack, done
	t.onHeld()
}

// inject sends a delayed ack, one zero-delay event on: where a sender
// process spawned now would start.
func (rl *ReliableLink) inject(route, frame []byte) {
	t := rl.take(rl.dackLabel)
	t.route, t.frame = route, frame
	rl.board.Eng.Post(0, t.onHeld)
}

// round runs a retransmit round as a chain of continuations, each posted
// where a sender process spawned now would have got to it: per packet the
// LANai's rlPerPacketCost hold, the net-send engine, then the link.
func (rl *ReliableLink) round(st *txState) {
	t := rl.take(rl.retxLabel)
	t.st = st
	rl.board.Eng.Post(0, t.onStep)
}

// linkTx is an ack, a delayed ack or a whole retransmit round on its way
// out without a process: the net-send engine (bus.DMAEngine.Start), then
// the link (NIC.StartSend), each queued and timed where a sending process
// would have been. Its steps are bound once and the record goes back on
// idle when its work is done, so injections allocate only their frames.
type linkTx struct {
	label        string
	route, frame []byte
	done         func()
	// A retransmit round: the window, the snapshot of it being resent,
	// and the next packet's index.
	st  *txState
	win []bufferedPacket
	i   int

	onHeld, onEngine, onStep func()
}

func (rl *ReliableLink) take(label string) (t *linkTx) {
	if k := len(rl.idle); k > 0 {
		t, rl.idle = rl.idle[k-1], rl.idle[:k-1]
	} else {
		t = rl.newLinkTx()
	}
	t.label = label
	return t
}

func (rl *ReliableLink) newLinkTx() *linkTx {
	t := new(linkTx)
	b := rl.board
	free := func() {
		t.route, t.frame, t.done, t.st, t.win, t.i = nil, nil, nil, nil, nil, 0
		rl.idle = append(rl.idle, t)
	}
	t.onHeld = func() { b.NetSend.Start(t.label, 0, b.Prof.NetSend, t.onEngine) }
	t.onEngine = func() {
		if t.st != nil {
			b.NIC.StartSend(t.label, t.st.route, t.frame, t.onStep)
			return
		}
		label, route, frame, done := t.label, t.route, t.frame, t.done
		free()
		b.NIC.StartSend(label, route, frame, done)
	}
	t.onStep = func() {
		if t.i == 0 {
			t.win = t.st.unacked
		}
		if !rl.resend(t.st, t.win, t.i) {
			free()
			return
		}
		t.frame = t.win[t.i].frame
		t.i++
		b.Eng.Post(rlPerPacketCost, t.onHeld)
	}
	return t
}
