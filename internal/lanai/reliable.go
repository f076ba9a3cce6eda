package lanai

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrPeerUnreachable is returned by reliable sends when the retransmit
// budget for a destination is exhausted without an acknowledgement: the
// peer is crashed, its link is dead, or the path is partitioned. The
// window state toward that peer is discarded, so a later send (after
// repair) starts a fresh conversation at sequence zero.
var ErrPeerUnreachable = errors.New("lanai: peer unreachable, retransmit budget exhausted")

// Reliable data-link layer — the future-work extension of the paper's
// research line (realized in VMMC-2 as "reliable communication at the data
// link layer"). The paper itself deliberately ships without CRC-error
// recovery (§4.2: it "would complicate its design and add more software
// overhead"); this layer exists to make that trade-off measurable. It is
// OFF by default and enabled per board with EnableReliability.
//
// Design: go-back-N between NIC pairs, sender-driven.
//
//   - every outgoing data packet is framed with [type, senderNIC, seq,
//     class] and held in an SRAM retransmit window until acknowledged;
//   - the receiver tracks the expected sequence per (sender, class); in-
//     sequence packets are delivered and (cumulatively) acknowledged, with
//     [type, ackerNIC, ackSeq, class], along the reversed ingress route;
//     anything else — CRC damage, or the gap an earlier CRC drop leaves —
//     is discarded;
//   - a timer retransmits the whole unacknowledged window when the oldest
//     packet outlives the timeout; the timeout adapts to the measured
//     round-trip time (Karn's rule: retransmitted packets never produce
//     RTT samples) and backs off exponentially across retransmit rounds;
//   - after MaxRetries rounds with no acknowledgement the destination is
//     declared unreachable: the window state is dropped and pending and
//     future sends fail with ErrPeerUnreachable instead of retrying
//     forever — unless a stall handler (the self-healing layer) claims
//     the window, in which case it is suspended: packets stay buffered,
//     senders stay parked, and the handler later resumes the window on a
//     recovered (possibly different) route or abandons it;
//   - senders stall when the window fills, bounding SRAM use.
type ReliableLink struct {
	board *Board
	cfg   ReliabilityConfig

	// tx holds the transmit windows, one per conversation: a destination
	// NIC and a traffic class (classes give tenants independent windows
	// toward the same peer, so dropping one tenant's windows cannot
	// disturb another's sequence state). Data packets carry the sender's
	// NIC id and the class, acks the acker's NIC id and the class, so
	// either end finds the conversation whatever route a packet took.
	tx map[conv]*txState
	// Per conversation with a sending peer: next expected sequence.
	rxExpected map[conv]uint32
	// Per conversation with a sending peer: armed delayed-ack state
	// (AckDelay > 0 only).
	rxAckPending map[conv]*pendingAck

	windowFree *sim.Cond
	sramOff    int
	comp       string // trace component, "lanai<id>"
	// Names of the retransmit sender process and of a delayed ack as the
	// holder of the net-send engine and the link.
	retxName, dackLabel string
	idleAcks            []*ackTx // records of sent acks, for reuse

	// onStall, when set, is consulted instead of declaring a destination
	// unreachable; see SetStallHandler.
	onStall func(peer int) bool

	m rlMetrics
}

// rlMetrics are the link layer's registry counters, "lanai<id>/rl_*".
type rlMetrics struct {
	retransmits, unreachable *trace.Counter
	dupDrops, gapDrops       *trace.Counter
	corruptDrops, deliveries *trace.Counter
	acksSent, windowStalls   *trace.Counter
}

func newRLMetrics(r *trace.Registry, comp string) rlMetrics {
	c := func(name string) *trace.Counter { return r.Counter(comp + "/rl_" + name) }
	return rlMetrics{
		retransmits:  c("retransmits"),
		unreachable:  c("unreachable"),
		dupDrops:     c("dup_drops"),
		gapDrops:     c("gap_drops"),
		corruptDrops: c("corrupt_drops"),
		deliveries:   c("deliveries"),
		acksSent:     c("acks_sent"),
		windowStalls: c("window_stalls"),
	}
}

// The link layer's fixed protocol parameters.
const (
	// rlWindow is the per-destination unacknowledged packet limit.
	rlWindow = 32
	// rlAckEvery acknowledges every k-th in-sequence packet; the tail of a
	// burst is acknowledged by the delayed ack or the timeout path.
	rlAckEvery = 4
	// rlInitialRTO is the retransmission timeout until the first
	// round-trip sample; afterwards the timeout adapts (srtt + 4*rttvar,
	// clamped to [rlMinRTO, MaxRTO]).
	rlInitialRTO = 200 * sim.Microsecond
	rlMinRTO     = 100 * sim.Microsecond
	// rlPerPacketCost is the LANai software cost of the link-layer
	// bookkeeping on each side — the overhead §4.2 declined to pay.
	rlPerPacketCost = 500 * sim.Nanosecond
)

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
	// AckDelay, when positive, arms a receiver-side delayed ack for
	// in-sequence packets the rlAckEvery cadence skips: if no later packet
	// forces an ack first, a cumulative ack goes out AckDelay after the
	// packet arrived. Without it (the zero default, preserving the
	// original behavior) the tail of a burst is acknowledged only by the
	// sender's timeout-retransmit-duplicate round trip — one full RTO of
	// latency and a redundant retransmission per straggler, which under
	// sparse traffic means per *message*. Set it well below the RTO and
	// above the inter-packet gap of a burst.
	AckDelay sim.Time
}

// DefaultReliability returns a reasonable configuration.
func DefaultReliability() ReliabilityConfig {
	return ReliabilityConfig{
		MaxRTO:     2 * sim.Millisecond,
		MaxRetries: 8,
	}
}

// pendingAck is an armed delayed acknowledgement toward one sender. The
// ack is cumulative: it reads rxExpected at fire time, so packets landing
// while the timer runs are covered without re-arming.
type pendingAck struct {
	timer *sim.Event
	route []byte // reversed ingress back to the sender
}

// conv names one reliable conversation from this board's side: the NIC at
// the other end and the traffic class (0 = default).
type conv struct {
	peer, class int
}

type txState struct {
	// conv is the window's destination and class; route is the current
	// route to the destination, which a heal may replace while the window
	// lives.
	conv    conv
	route   []byte
	nextSeq uint32
	// unacked[0] is the oldest in-flight packet.
	unacked []bufferedPacket
	timer   *sim.Event

	// Adaptive timeout state (Jacobson smoothing, Karn sampling).
	srtt, rttvar sim.Time
	// Consecutive timer-driven retransmit rounds with no ack progress;
	// each round doubles the effective timeout up to MaxRTO.
	retries int
	// dead marks a window whose retransmit budget was exhausted; pending
	// senders wake and fail, and the state is dropped from the tx map.
	dead bool
	// suspended marks a window parked by the stall handler: no timer, no
	// wire traffic, packets held for a resume on a healed route.
	suspended bool
}

type bufferedPacket struct {
	seq uint32
	// frame is the packet exactly as injected, link header included. The
	// window, every retransmission and the copies still queued at the
	// receiver all share this one buffer, so nobody writes to it again.
	frame  []byte
	sentAt sim.Time
	// retx marks a packet that has been retransmitted: its ack no longer
	// yields a usable RTT sample (Karn's rule).
	retx bool
}

// Link-layer packet types.
const (
	linkData    = 0xD1
	linkAck     = 0xA1
	linkHdrSize = 13 // type(1) + sender or acker NIC(4) + seq(4) + class(4)
)

// EnableReliability installs the link layer on the board. It must be
// called before traffic flows; it allocates the retransmit window
// buffers from board SRAM (the resource cost of reliability).
func (b *Board) EnableReliability(cfg ReliabilityConfig) (*ReliableLink, error) {
	// Window buffers: assume page-sized packets plus headers.
	off, err := b.SRAM.Alloc(rlWindow*(4096+64), "retransmit-window")
	if err != nil {
		return nil, err
	}
	comp := b.comp
	rl := &ReliableLink{
		board:        b,
		cfg:          cfg,
		tx:           make(map[conv]*txState),
		rxExpected:   make(map[conv]uint32),
		rxAckPending: make(map[conv]*pendingAck),
		windowFree:   sim.NewCond(b.Eng),
		sramOff:      off,
		comp:         comp,
		retxName:     comp + ":retx",
		dackLabel:    comp + ":dack",
		m:            newRLMetrics(b.Eng.Metrics(), comp),
	}
	b.reliable = rl
	return rl, nil
}

// Reliable returns the board's link layer, nil when disabled.
func (b *Board) Reliable() *ReliableLink { return b.reliable }

// emitWindowOccupancy samples one transmit window's credit occupancy
// (unacked packets over the window limit, 0..1) into the trace. The
// bottleneck analyzer folds these samples into its occupancy tracks; a
// window pinned near 1.0 means senders are credit-stalled.
func (rl *ReliableLink) emitWindowOccupancy(st *txState) {
	if !rl.board.Eng.Trace().Enabled() {
		return
	}
	rl.board.Eng.TraceCounter(rl.comp, "rl", "window_occupancy",
		float64(len(st.unacked))/rlWindow)
}

// putLinkHdr writes a link-layer header into the first linkHdrSize bytes
// of frame, naming the conversation by this board's NIC id and the class:
// a data packet's receiver sequences it per (sender, class), and an ack
// trims exactly the (acker, class) window at the sender. seq is the data
// sequence number or the cumulative ack.
func (rl *ReliableLink) putLinkHdr(frame []byte, typ byte, seq uint32, class int) {
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:], uint32(rl.board.NIC.ID))
	binary.BigEndian.PutUint32(frame[5:], seq)
	binary.BigEndian.PutUint32(frame[9:], uint32(class))
}

// readLinkHdr is putLinkHdr's inverse for a frame of at least linkHdrSize
// bytes: the conversation as the receiving board names it, and seq.
func readLinkHdr(frame []byte) (conv, uint32) {
	peer := int(binary.BigEndian.Uint32(frame[1:]))
	class := int(binary.BigEndian.Uint32(frame[9:]))
	return conv{peer: peer, class: class}, binary.BigEndian.Uint32(frame[5:])
}

// send transmits a frame — payload behind linkHdrSize bytes of headroom,
// as Board.NewFrame lays it out — reliably to NIC dst, inside the transmit
// window of the given traffic class; a new window starts out on route. It
// blocks while the window is full and fails with ErrPeerUnreachable when
// the destination's retransmit budget is exhausted while waiting. The
// frame becomes the window's: the header goes into the headroom and the
// same buffer serves every (re)transmission until it is acknowledged.
func (rl *ReliableLink) send(p *sim.Proc, dst int, route []byte, frame []byte, class int) error {
	k := conv{peer: dst, class: class}
	st := rl.tx[k]
	if st == nil {
		st = &txState{conv: k, route: append([]byte(nil), route...)}
		rl.tx[k] = st
	}
	for len(st.unacked) >= rlWindow {
		rl.m.windowStalls.Add(1)
		rl.windowFree.Wait(p)
		if st.dead {
			return ErrPeerUnreachable
		}
	}
	if st.dead {
		return ErrPeerUnreachable
	}
	p.Sleep(rlPerPacketCost)
	seq := st.nextSeq
	st.nextSeq++
	rl.putLinkHdr(frame, linkData, seq, class)
	st.unacked = append(st.unacked, bufferedPacket{seq: seq, frame: frame, sentAt: p.Now()})
	rl.emitWindowOccupancy(st)
	rl.armTimer(st)
	if st.suspended {
		// The route is known dead and a heal is pending: buffer only.
		// Resume retransmits the whole window on the healed route, so
		// nothing is lost by skipping the doomed injection.
		return nil
	}
	rl.board.NetSend.TransferWith(p, 0, rl.board.Prof.NetSend)
	rl.board.NIC.Send(p, st.route, frame)
	return nil
}

// windowsTo collects every class's window toward NIC peer, in class
// order. Peer-level operations — heals, peer resets — apply to all of
// them: the classes share the physical path even though their sequence
// streams are independent.
func (rl *ReliableLink) windowsTo(peer int) []*txState {
	var sts []*txState
	for k, st := range rl.tx {
		if k.peer == peer {
			sts = append(sts, st)
		}
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].conv.class < sts[j].conv.class })
	return sts
}

// rto is the current retransmission timeout for one destination: the
// initial rlInitialRTO until the first RTT sample, then
// srtt + 4*rttvar, clamped, then doubled per fruitless retransmit round.
func (rl *ReliableLink) rto(st *txState) sim.Time {
	t := rlInitialRTO
	if st.srtt > 0 {
		t = st.srtt + 4*st.rttvar
		if t < rlMinRTO {
			t = rlMinRTO
		}
	}
	for i := 0; i < st.retries && t < rl.cfg.MaxRTO; i++ {
		t *= 2
	}
	if t > rl.cfg.MaxRTO {
		t = rl.cfg.MaxRTO
	}
	return t
}

// stopTimer cancels the window's retransmit timer, if one is armed.
func (st *txState) stopTimer() {
	if st.timer != nil {
		st.timer.Cancel()
		st.timer = nil
	}
}

func (rl *ReliableLink) armTimer(st *txState) {
	if st.timer != nil || len(st.unacked) == 0 || st.dead || st.suspended {
		return
	}
	st.timer = rl.board.Eng.After(rl.rto(st), func() {
		st.timer = nil
		rl.retransmit(st)
	})
}

// retransmit resends the whole unacknowledged window (go-back-N). Each
// timer-driven round consumes one unit of the retransmit budget; the
// budget resets whenever an ack makes progress. When the budget runs out,
// the stall handler (if any) may claim the window for healing instead of
// the terminal unreachable declaration.
func (rl *ReliableLink) retransmit(st *txState) {
	if len(st.unacked) == 0 || st.dead || st.suspended {
		return
	}
	if st.retries >= rl.cfg.MaxRetries {
		if rl.onStall != nil && rl.onStall(st.conv.peer) {
			rl.suspend(st)
			return
		}
		rl.declareUnreachable(st)
		return
	}
	st.retries++
	rl.board.Eng.Go(rl.retxName, func(p *sim.Proc) {
		// Snapshot: acks arriving during the resend sleeps trim the live
		// window; the backing array keeps the snapshot elements valid.
		win := st.unacked
		for i := range win {
			if st.dead || st.suspended {
				return
			}
			bp := &win[i]
			bp.retx = true
			rl.m.retransmits.Add(1)
			p.Sleep(rlPerPacketCost)
			rl.board.NetSend.TransferWith(p, 0, rl.board.Prof.NetSend)
			rl.board.NIC.Send(p, st.route, bp.frame)
		}
		rl.armTimer(st)
	})
}

// suspend parks a window whose retransmit budget ran out while a heal is
// pending: the timer stops, the unacked packets stay buffered, and senders
// keep queueing behind the (possibly full) window instead of failing.
func (rl *ReliableLink) suspend(st *txState) {
	st.suspended = true
	st.retries = 0
	st.stopTimer()
	rl.board.Eng.TraceInstant(rl.comp, "rl", "window_suspended")
}

// declareUnreachable gives up on a destination: the window state is
// discarded (a post-repair send restarts at sequence zero) and every
// sender parked on the full window wakes up to fail.
func (rl *ReliableLink) declareUnreachable(st *txState) {
	rl.kill(st)
	rl.emitWindowOccupancy(st)
	rl.m.unreachable.Add(1)
	rl.board.Eng.TraceInstant(rl.comp, "rl", "peer_unreachable")
	rl.windowFree.Broadcast()
}

// kill discards one transmit window, whatever the reason — retransmit
// budget exhausted, board reset, peer restart, class teardown: its packets
// drop, its timer stops, and the window is forgotten, so a later send
// starts a fresh conversation at sequence zero. Senders parked on the
// window read it as dead once the caller broadcasts windowFree.
func (rl *ReliableLink) kill(st *txState) {
	st.dead = true
	st.suspended = false
	st.unacked = nil
	st.stopTimer()
	delete(rl.tx, st.conv)
}

// handleAck processes a cumulative acknowledgement for packets < ackSeq in
// the window of conversation k.
func (rl *ReliableLink) handleAck(k conv, ackSeq uint32) {
	st := rl.tx[k]
	if st == nil {
		return
	}
	trimmed := false
	for len(st.unacked) > 0 && st.unacked[0].seq < ackSeq {
		bp := st.unacked[0]
		st.unacked = st.unacked[1:]
		trimmed = true
		// Karn's rule: only never-retransmitted packets sample the RTT.
		if !bp.retx {
			rl.sampleRTT(st, rl.board.Eng.Now()-bp.sentAt)
		}
	}
	if trimmed {
		rl.emitWindowOccupancy(st)
		st.retries = 0
		if st.timer != nil {
			st.timer.Cancel()
			st.timer = nil
		}
		rl.armTimer(st)
		rl.windowFree.Broadcast()
	}
}

// sampleRTT folds one round-trip sample into the Jacobson estimator.
func (rl *ReliableLink) sampleRTT(st *txState, rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if st.srtt == 0 {
		st.srtt = rtt
		st.rttvar = rtt / 2
		return
	}
	dev := st.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	st.rttvar = (3*st.rttvar + dev) / 4
	st.srtt = (7*st.srtt + rtt) / 8
}

// Reset discards all link-layer state — windows, timers, receive
// sequencing — as a crashed-and-restarted node's board does. Parked
// senders are woken (their windows read as dead).
func (rl *ReliableLink) Reset() {
	for _, st := range rl.tx {
		rl.kill(st)
	}
	rl.rxExpected = make(map[conv]uint32)
	for k := range rl.rxAckPending {
		rl.cancelDelayedAck(k)
	}
	rl.windowFree.Broadcast()
}

// ResetPeer forgets every conversation with NIC nic: each class's transmit
// window toward it and all receive sequencing from it. Surviving nodes
// call this when a peer restarts, so its fresh sequence numbers are
// accepted (the restart announcement of a real implementation).
func (rl *ReliableLink) ResetPeer(nic int) {
	if sts := rl.windowsTo(nic); len(sts) > 0 {
		for _, st := range sts {
			rl.kill(st)
		}
		rl.windowFree.Broadcast()
	}
	for k := range rl.rxExpected {
		if k.peer == nic {
			delete(rl.rxExpected, k)
		}
	}
	for k := range rl.rxAckPending {
		if k.peer == nic {
			rl.cancelDelayedAck(k)
		}
	}
}

// DropClass silently tears down every transmit window of one traffic
// class: timers cancel, buffered packets drop, parked senders wake to
// fail with ErrPeerUnreachable. Unlike declareUnreachable this raises no
// unreachable event and runs no stall handler — the class's owner is
// gone by fiat (a killed tenant), not lost to the fabric, and nothing
// should try to heal toward it. Class 0, the shared default, is never
// dropped this way. Receive-side sequence entries for the dropped
// windows are left behind; class ids are never reused, so they are inert.
func (rl *ReliableLink) DropClass(class int) {
	if class == 0 {
		return
	}
	dropped := false
	for k, st := range rl.tx {
		if k.class == class {
			rl.kill(st)
			dropped = true
		}
	}
	if !dropped {
		return
	}
	rl.board.Eng.TraceInstant(rl.comp, "rl", fmt.Sprintf("class_dropped:%d", class))
	rl.windowFree.Broadcast()
}

// Unacked reports how many packets the transmit windows of one traffic
// class hold for retransmission — the class's share of the retransmit
// buffers, which a teardown of its owner must return.
func (rl *ReliableLink) Unacked(class int) int {
	n := 0
	for k, st := range rl.tx {
		if k.class == class {
			n += len(st.unacked)
		}
	}
	return n
}

// SetStallHandler registers the heal hook consulted when a destination's
// retransmit budget runs out. Returning true suspends the window — the
// buffered packets and parked senders wait for a heal — instead of
// declaring the peer unreachable; the caller is then responsible for
// eventually calling Resume or Abandon with the same peer. The handler
// runs in event context and must not block; it receives the NIC id of the
// window's destination.
func (rl *ReliableLink) SetStallHandler(fn func(peer int) bool) { rl.onStall = fn }

// Reroute moves every class's window toward NIC dst onto route without
// disturbing its sequence state: buffered packets retransmit on the new
// path, and acks find their windows whichever way they travel, since an
// ack names its window by the acker and the class.
func (rl *ReliableLink) Reroute(dst int, route []byte) {
	for _, st := range rl.windowsTo(dst) {
		st.route = append([]byte(nil), route...)
	}
}

// Resume reactivates the suspended windows toward NIC peer once a heal
// found it again: the retransmit budget resets and each whole unacked
// window goes out immediately on its current (possibly rerouted) route.
// Windows that are not suspended are left untouched.
func (rl *ReliableLink) Resume(peer int) {
	for _, st := range rl.windowsTo(peer) {
		if !st.suspended {
			continue
		}
		st.suspended = false
		st.retries = 0
		rl.board.Eng.TraceInstant(rl.comp, "rl", "window_resumed")
		if len(st.unacked) > 0 {
			rl.retransmit(st)
		}
	}
}

// Abandon gives up on the windows toward NIC peer: the heal could not
// recover a route to it within its budget. Equivalent to the retransmit
// budget running out with no stall handler — parked and future senders
// fail with ErrPeerUnreachable.
func (rl *ReliableLink) Abandon(peer int) {
	for _, st := range rl.windowsTo(peer) {
		rl.declareUnreachable(st)
	}
}

// receive is the link layer's first look at an arrived packet, in the
// receive engine (Receiver). It handles everything but a data frame on the
// spot — damage is dropped (the sender's timeout recovers it), an ack
// trims its window — and reports whether pk is a data frame, which costs
// the LANai rlPerPacketCost of bookkeeping before admit sequences it.
func (rl *ReliableLink) receive(pk *myrinet.Packet) bool {
	if !pk.CheckCRC() {
		rl.m.corruptDrops.Add(1)
		return false
	}
	if len(pk.Payload) < linkHdrSize {
		return false
	}
	switch pk.Payload[0] {
	case linkAck:
		rl.handleAck(readLinkHdr(pk.Payload))
	case linkData:
		return true
	}
	return false
}

// admit sequences a data frame once its bookkeeping is paid for. It
// returns the inner payload when the frame is in sequence and goes up (nil
// for a duplicate or a gap), and the cumulative ack to send back along the
// reversed ingress route before anything goes up (nil when the cadence
// skips this frame).
func (rl *ReliableLink) admit(pk *myrinet.Packet) (data, ack []byte) {
	k, seq := readLinkHdr(pk.Payload)
	expect := rl.rxExpected[k]
	switch {
	case seq == expect:
		rl.rxExpected[k] = expect + 1
		rl.m.deliveries.Add(1)
		// Cumulative ack every k packets; stragglers are recovered by the
		// delayed ack when configured, otherwise by the sender's timeout +
		// the duplicate re-ack below.
		if (seq+1)%rlAckEvery == 0 {
			rl.cancelDelayedAck(k)
			return pk.Payload[linkHdrSize:], rl.ackFrame(k.class, seq+1)
		}
		if rl.cfg.AckDelay > 0 {
			rl.armDelayedAck(k, pk)
		}
		return pk.Payload[linkHdrSize:], nil
	case seq < expect:
		// Duplicate from a retransmission race: re-ack so the sender's
		// window advances.
		rl.m.dupDrops.Add(1)
	default:
		// Gap: an earlier packet was dropped (CRC); go-back-N discards
		// successors and re-acks the expectation.
		rl.m.gapDrops.Add(1)
	}
	rl.cancelDelayedAck(k)
	return nil, rl.ackFrame(k.class, expect)
}

// ackFrame builds a cumulative acknowledgement of every packet below
// ackSeq in the class's conversation with the packets' sender.
func (rl *ReliableLink) ackFrame(class int, ackSeq uint32) []byte {
	ack := make([]byte, linkHdrSize)
	rl.putLinkHdr(ack, linkAck, ackSeq, class)
	return ack
}

// sendAck injects an ack along route without a process: the net-send
// engine's start (bus.DMAEngine.Start), then the link (NIC.StartSend),
// queued and timed where a process sending it would have been; done, which
// may be nil, runs once the ack has left. label names the sender as the
// holder of both.
func (rl *ReliableLink) sendAck(label string, route, ack []byte, done func()) {
	rl.m.acksSent.Add(1)
	var a *ackTx
	if k := len(rl.idleAcks); k > 0 {
		a, rl.idleAcks = rl.idleAcks[k-1], rl.idleAcks[:k-1]
	} else {
		a = rl.newAckTx()
	}
	a.label, a.route, a.ack, a.done = label, route, ack, done
	rl.board.NetSend.Start(label, 0, rl.board.Prof.NetSend, a.onEngine)
}

// ackTx is one sendAck between the engine and the link. Its step is bound
// to the record once and the record goes back on idleAcks as soon as the
// link has the ack, so acks allocate only their frames.
type ackTx struct {
	label      string
	route, ack []byte
	done       func()
	onEngine   func()
}

func (rl *ReliableLink) newAckTx() *ackTx {
	a := new(ackTx)
	a.onEngine = func() {
		label, route, ack, done := a.label, a.route, a.ack, a.done
		a.route, a.ack, a.done = nil, nil, nil
		rl.idleAcks = append(rl.idleAcks, a)
		rl.board.NIC.StartSend(label, route, ack, done)
	}
	return a
}

// armDelayedAck schedules a cumulative ack toward one sequence stream
// unless one is already pending (the existing timer's ack covers the new
// packet — the ack sequence is read at fire time).
func (rl *ReliableLink) armDelayedAck(k conv, pk *myrinet.Packet) {
	if rl.rxAckPending[k] != nil {
		return
	}
	pa := &pendingAck{route: myrinet.ReverseRoute(pk.Ingress)}
	rl.rxAckPending[k] = pa
	pa.timer = rl.board.Eng.After(rl.cfg.AckDelay, func() {
		delete(rl.rxAckPending, k)
		ack := rl.ackFrame(k.class, rl.rxExpected[k])
		// The ack leaves one zero-delay event on, where a sender process
		// spawned now would start.
		rl.board.Eng.Post(0, func() { rl.sendAck(rl.dackLabel, pa.route, ack, nil) })
	})
}

// cancelDelayedAck withdraws a pending delayed ack; an immediate
// cumulative ack for the same sequence stream supersedes it.
func (rl *ReliableLink) cancelDelayedAck(k conv) {
	if pa := rl.rxAckPending[k]; pa != nil {
		pa.timer.Cancel()
		delete(rl.rxAckPending, k)
	}
}
