package lanai

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// linkCore is the link layer's go-back-N protocol and nothing else. Each
// data packet waits in a transmit window until the receiver, which takes
// packets only in sequence, acknowledges it cumulatively; a timer resends
// the whole window when its oldest packet outlives the timeout, which
// adapts to the round trip and backs off per fruitless round; after
// MaxRetries of those the peer is declared unreachable, unless a stall
// handler (the self-healing layer) claims the window. The core never
// blocks, is handed the time, and reaches timers, the wire and the trace
// only through its port, so a test can drive it with no engine at all.
type linkCore struct {
	self   int // this board's NIC id, which every header it writes names
	cfg    ReliabilityConfig
	window int // unacknowledged packets per conversation: rlWindow on a board
	port   linkPort

	// tx holds the transmit windows, one per conversation: a destination
	// NIC and a traffic class, so one tenant's windows can go without
	// disturbing another's sequence state. A discarded window stays, as the
	// record of its conversation's next sequence, until a reset.
	tx map[conv]*txState
	// Per conversation with a sending peer: the next expected sequence,
	// and the armed delayed ack (AckDelay > 0 only).
	rxExpected   map[conv]uint32
	rxAckPending map[conv]stopper

	onStall func(peer int) bool // see SetStallHandler
	m       rlMetrics
}

// linkPort is all the core asks of the world: after arms a timer; inject
// puts a frame on the wire without blocking; round starts a retransmit
// round, whose steps come back through linkCore.resend; wake rouses the
// senders parked on full windows; note and fill trace an instant and a
// window's occupancy.
type linkPort interface {
	after(d sim.Time, fire func()) stopper
	inject(route, frame []byte)
	round(st *txState)
	wake()
	note(name string)
	fill(st *txState)
}

// stopper is an armed timer; Cancel withdraws it.
type stopper interface{ Cancel() }

// rlMetrics are the link layer's registry counters, "lanai<id>/rl_*".
type rlMetrics struct {
	retransmits, unreachable, dupDrops, gapDrops, corruptDrops, deliveries, acksSent, windowStalls *trace.Counter
}

func newRLMetrics(r *trace.Registry, comp string) rlMetrics {
	c := func(name string) *trace.Counter { return r.Counter(comp + "/rl_" + name) }
	return rlMetrics{c("retransmits"), c("unreachable"), c("dup_drops"), c("gap_drops"),
		c("corrupt_drops"), c("deliveries"), c("acks_sent"), c("window_stalls")}
}

// The link layer's fixed protocol parameters.
const (
	// rlWindow is the per-destination unacknowledged packet limit.
	rlWindow = 32
	// rlAckEvery acknowledges every k-th in-sequence packet; the tail of a
	// burst is acknowledged by the delayed ack or the timeout path.
	rlAckEvery = 4
	// rlInitialRTO is the timeout until the first round-trip sample; then
	// it adapts (srtt + 4*rttvar, clamped to [rlMinRTO, MaxRTO]).
	rlInitialRTO = 200 * sim.Microsecond
	rlMinRTO     = 100 * sim.Microsecond
)

// conv names one reliable conversation from this board's side: the NIC at
// the other end and the traffic class (0 = default).
type conv struct {
	peer, class int
}

type txState struct {
	// The window's destination and class, and its current route, which a
	// heal may replace while the window lives.
	conv    conv
	route   []byte
	nextSeq uint32
	// unacked[0] is the oldest in-flight packet.
	unacked []bufferedPacket
	// The armed retransmit timeout, and what it fires (bound once).
	timer     stopper
	onTimeout func()

	// Adaptive timeout state (Jacobson smoothing, Karn sampling).
	srtt, rttvar sim.Time
	// Consecutive timer-driven retransmit rounds with no ack progress;
	// each round doubles the effective timeout up to MaxRTO.
	retries int
	// dead marks a discarded window, whose parked senders wake and fail;
	// suspended one parked by the stall handler: no timer, no wire
	// traffic, packets held for a resume on a healed route; syn a window
	// whose next push is its first, and goes out as linkSyn.
	dead, suspended, syn bool
}

type bufferedPacket struct {
	seq uint32
	// frame is the packet exactly as injected, link header included. The
	// window, every retransmission and the copies still queued at the
	// receiver all share this one buffer, so nobody writes to it again.
	frame  []byte
	sentAt sim.Time
	retx   bool // resent, so its ack yields no RTT sample (Karn's rule)
}

// Link-layer packet types. linkSyn is the data frame that opens a window:
// the receiver skips ahead to it over whatever an unreachable verdict gave
// up before it.
const (
	linkData    = 0xD1
	linkSyn     = 0xD5
	linkAck     = 0xA1
	linkHdrSize = 13 // type(1) + sender or acker NIC(4) + seq(4) + class(4)
)

// putLinkHdr writes a link header into frame's first linkHdrSize bytes:
// the type, this board's NIC id and the class, which name the conversation
// whatever route the frame takes, and seq, a data sequence or a cumulative
// ack.
func (c *linkCore) putLinkHdr(frame []byte, typ byte, seq uint32, class int) {
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:], uint32(c.self))
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

// open returns the live window of the conversation with NIC dst in class,
// starting one on route if there is none; a new window goes on from the
// sequence a discarded one stopped at.
func (c *linkCore) open(dst, class int, route []byte) *txState {
	k := conv{peer: dst, class: class}
	st := c.tx[k]
	if st == nil || st.dead {
		old := st
		st = &txState{conv: k, route: append([]byte(nil), route...), syn: true}
		if old != nil {
			st.nextSeq = old.nextSeq
		}
		st.onTimeout = func() {
			st.timer = nil
			c.retransmit(st)
		}
		c.tx[k] = st
	}
	return st
}

// push sequences frame — payload behind linkHdrSize bytes of headroom —
// into st's window at now: the header goes into the headroom, the window
// keeps the frame until it is acknowledged, and the timer runs. A window
// discarded since its sender opened it takes nothing.
func (c *linkCore) push(st *txState, frame []byte, now sim.Time) error {
	if st.dead {
		return ErrPeerUnreachable
	}
	seq, typ := st.nextSeq, byte(linkData)
	if st.syn {
		typ, st.syn = linkSyn, false
	}
	st.nextSeq++
	c.putLinkHdr(frame, typ, seq, st.conv.class)
	st.unacked = append(st.unacked, bufferedPacket{seq: seq, frame: frame, sentAt: now})
	c.port.fill(st)
	c.armTimer(st)
	return nil
}

// windowsTo collects every class's window toward NIC peer, in class
// order: peer-level operations — heals, peer resets — apply to all of
// them, since the classes share the physical path.
func (c *linkCore) windowsTo(peer int) []*txState {
	var sts []*txState
	for k, st := range c.tx {
		if k.peer == peer && !st.dead {
			sts = append(sts, st)
		}
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].conv.class < sts[j].conv.class })
	return sts
}

// rto is the current retransmission timeout for one destination: the
// initial rlInitialRTO until the first RTT sample, then
// srtt + 4*rttvar, clamped, then doubled per fruitless retransmit round.
func (c *linkCore) rto(st *txState) sim.Time {
	t := rlInitialRTO
	if st.srtt > 0 {
		t = max(st.srtt+4*st.rttvar, rlMinRTO)
	}
	for i := 0; i < st.retries && t < c.cfg.MaxRTO; i++ {
		t *= 2
	}
	return min(t, c.cfg.MaxRTO)
}

// stopTimer cancels the window's retransmit timer, if one is armed.
func (st *txState) stopTimer() {
	if st.timer != nil {
		st.timer.Cancel()
		st.timer = nil
	}
}

func (c *linkCore) armTimer(st *txState) {
	if st.timer == nil && len(st.unacked) > 0 && !st.dead && !st.suspended {
		st.timer = c.port.after(c.rto(st), st.onTimeout)
	}
}

// retransmit starts a go-back-N round over the unacknowledged window,
// spending one unit of the retry budget, which an ack's progress refills;
// with the budget spent, a stall handler may claim the window for healing,
// else the peer is declared unreachable.
func (c *linkCore) retransmit(st *txState) {
	switch {
	case len(st.unacked) == 0 || st.dead || st.suspended:
	case st.retries < c.cfg.MaxRetries:
		st.retries++
		c.port.round(st)
	case c.onStall != nil && c.onStall(st.conv.peer):
		st.suspended = true
		st.retries = 0
		st.stopTimer()
		c.port.note("window_suspended")
	default:
		c.declareUnreachable(st)
	}
}

// resend is step i of a round over win, the window as the round began
// (acks meanwhile trim the live window, not the snapshot). It reports
// whether win[i] goes out again, marking it resent; a round that has sent
// all of win re-arms the timer, and one whose window died just ends.
func (c *linkCore) resend(st *txState, win []bufferedPacket, i int) bool {
	if i == len(win) {
		c.armTimer(st)
		return false
	}
	if st.dead || st.suspended {
		return false
	}
	win[i].retx = true
	c.m.retransmits.Add(1)
	return true
}

// declareUnreachable gives up on a destination: the window's packets are
// discarded and every sender parked on the full window wakes up to fail.
func (c *linkCore) declareUnreachable(st *txState) {
	c.kill(st)
	c.port.fill(st)
	c.m.unreachable.Add(1)
	c.port.note("peer_unreachable")
	c.port.wake()
}

// kill discards one transmit window — retransmit budget exhausted, board
// reset, peer restart, class teardown. Its parked senders read it as dead
// once the caller wakes them.
func (c *linkCore) kill(st *txState) {
	st.dead = true
	st.suspended = false
	st.unacked = nil
	st.stopTimer()
}

// handleAck trims, at now, the packets below ackSeq off k's window.
func (c *linkCore) handleAck(k conv, ackSeq uint32, now sim.Time) {
	st := c.tx[k]
	if st == nil || len(st.unacked) == 0 || st.unacked[0].seq >= ackSeq {
		return
	}
	for len(st.unacked) > 0 && st.unacked[0].seq < ackSeq {
		// Karn's rule: only never-retransmitted packets sample the RTT.
		if bp := st.unacked[0]; !bp.retx {
			st.sampleRTT(now - bp.sentAt)
		}
		st.unacked = st.unacked[1:]
	}
	c.port.fill(st)
	st.retries = 0
	st.stopTimer()
	c.armTimer(st)
	c.port.wake()
}

// sampleRTT folds one round-trip sample into the Jacobson estimator.
func (st *txState) sampleRTT(rtt sim.Time) {
	switch {
	case rtt <= 0:
	case st.srtt == 0:
		st.srtt, st.rttvar = rtt, rtt/2
	default:
		dev := st.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		st.rttvar = (3*st.rttvar + dev) / 4
		st.srtt = (7*st.srtt + rtt) / 8
	}
}

// Reset discards all link-layer state — windows, timers, receive
// sequencing — as a crashed-and-restarted node's board does. Parked
// senders are woken (their windows read as dead).
func (c *linkCore) Reset() {
	for _, st := range c.tx {
		c.kill(st)
	}
	clear(c.tx)
	clear(c.rxExpected)
	for k := range c.rxAckPending {
		c.cancelDelayedAck(k)
	}
	c.port.wake()
}

// ResetPeer forgets every conversation with NIC nic, both ways, as the
// surviving nodes do when it restarts (a real implementation's restart
// announcement): both ends start over at sequence zero.
func (c *linkCore) ResetPeer(nic int) {
	if sts := c.windowsTo(nic); len(sts) > 0 {
		for _, st := range sts {
			c.kill(st)
		}
		c.port.wake()
	}
	ofPeer := func(k conv) bool { return k.peer == nic }
	maps.DeleteFunc(c.tx, func(k conv, _ *txState) bool { return ofPeer(k) })
	maps.DeleteFunc(c.rxExpected, func(k conv, _ uint32) bool { return ofPeer(k) })
	for k := range c.rxAckPending {
		if ofPeer(k) {
			c.cancelDelayedAck(k)
		}
	}
}

// DropClass silently tears down every transmit window of one traffic
// class, except the shared class 0: parked senders wake to fail with
// ErrPeerUnreachable, but the class's owner (a killed tenant) is gone by
// fiat, so no unreachable verdict or stall handler runs. Class ids are
// never reused, so the receive-side entries left behind are inert.
func (c *linkCore) DropClass(class int) {
	dropped := false
	for k, st := range c.tx {
		if class != 0 && k.class == class && !st.dead {
			c.kill(st)
			dropped = true
		}
	}
	if dropped {
		c.port.note(fmt.Sprintf("class_dropped:%d", class))
		c.port.wake()
	}
}

// Unacked reports how many packets the transmit windows of one traffic
// class hold: its share of the retransmit buffers, which a teardown of
// its owner must return.
func (c *linkCore) Unacked(class int) int {
	n := 0
	for k, st := range c.tx {
		if k.class == class {
			n += len(st.unacked)
		}
	}
	return n
}

// SetStallHandler registers the heal hook consulted, in event context,
// with the NIC id of a destination whose retransmit budget ran out. True
// suspends the window, its packets and senders waiting for a heal, and
// obliges the caller to Resume or Abandon the peer later.
func (c *linkCore) SetStallHandler(fn func(peer int) bool) { c.onStall = fn }

// Reroute moves every class's window toward NIC dst onto route without
// disturbing its sequence state: buffered packets retransmit on the new
// path, and acks find their windows whichever way they travel.
func (c *linkCore) Reroute(dst int, route []byte) {
	for _, st := range c.windowsTo(dst) {
		st.route = append([]byte(nil), route...)
	}
}

// Resume reactivates the suspended windows toward NIC peer once a heal
// found it again: the retransmit budget resets and each whole unacked
// window goes out immediately on its current (possibly rerouted) route.
func (c *linkCore) Resume(peer int) {
	for _, st := range c.windowsTo(peer) {
		if st.suspended {
			st.suspended = false
			st.retries = 0
			c.port.note("window_resumed")
			c.retransmit(st)
		}
	}
}

// Abandon gives up on the windows toward NIC peer: the heal could not
// recover a route to it within its budget. Equivalent to the retransmit
// budget running out with no stall handler.
func (c *linkCore) Abandon(peer int) {
	for _, st := range c.windowsTo(peer) {
		c.declareUnreachable(st)
	}
}

// receive is the first look at a frame arriving at now, intact if it
// passed the CRC check. Damage is dropped (the sender's timeout recovers
// it) and an ack trims its window; it reports a data frame, which costs
// the LANai rlPerPacketCost of bookkeeping before admit sequences it.
func (c *linkCore) receive(frame []byte, intact bool, now sim.Time) bool {
	switch {
	case !intact:
		c.m.corruptDrops.Add(1)
	case len(frame) < linkHdrSize:
	case frame[0] == linkAck:
		k, seq := readLinkHdr(frame)
		c.handleAck(k, seq, now)
	case frame[0] == linkData, frame[0] == linkSyn:
		return true
	}
	return false
}

// admit sequences a data frame that arrived over ingress once its
// bookkeeping is paid for. It returns the inner payload when the frame is
// in sequence and goes up (nil for a duplicate or a gap), and the
// cumulative ack to send back along the reversed ingress route before
// anything goes up (nil when the cadence skips this frame).
func (c *linkCore) admit(frame, ingress []byte) (data, ack []byte) {
	k, seq := readLinkHdr(frame)
	expect := c.rxExpected[k]
	if frame[0] == linkSyn && seq > expect {
		expect = seq // a new window: what its sender gave up is not coming
	}
	switch {
	case seq == expect:
		c.rxExpected[k] = expect + 1
		c.m.deliveries.Add(1)
		// Cumulative ack every k packets; stragglers are recovered by the
		// delayed ack when configured, otherwise by the sender's timeout +
		// the duplicate re-ack below.
		if (seq+1)%rlAckEvery == 0 {
			c.cancelDelayedAck(k)
			return frame[linkHdrSize:], c.ackFrame(k.class, seq+1)
		}
		if c.cfg.AckDelay > 0 && c.rxAckPending[k] == nil {
			c.armDelayedAck(k, myrinet.ReverseRoute(ingress))
		}
		return frame[linkHdrSize:], nil
	case seq < expect:
		// Duplicate from a retransmission race: re-ack so the sender's
		// window advances.
		c.m.dupDrops.Add(1)
	default:
		// Gap: an earlier packet was dropped (CRC); go-back-N discards
		// successors and re-acks the expectation.
		c.m.gapDrops.Add(1)
	}
	c.cancelDelayedAck(k)
	return nil, c.ackFrame(k.class, expect)
}

// ackFrame builds, and counts, a cumulative acknowledgement of every
// packet below ackSeq in the class's conversation with their sender.
func (c *linkCore) ackFrame(class int, ackSeq uint32) []byte {
	c.m.acksSent.Add(1)
	ack := make([]byte, linkHdrSize)
	c.putLinkHdr(ack, linkAck, ackSeq, class)
	return ack
}

// armDelayedAck schedules a cumulative ack back along route. It reads
// rxExpected when it fires, so it covers the packets that land meanwhile.
func (c *linkCore) armDelayedAck(k conv, route []byte) {
	c.rxAckPending[k] = c.port.after(c.cfg.AckDelay, func() {
		delete(c.rxAckPending, k)
		c.port.inject(route, c.ackFrame(k.class, c.rxExpected[k]))
	})
}

// cancelDelayedAck withdraws a pending delayed ack; an immediate
// cumulative ack for the same sequence stream supersedes it.
func (c *linkCore) cancelDelayedAck(k conv) {
	if t := c.rxAckPending[k]; t != nil {
		t.Cancel()
		delete(c.rxAckPending, k)
	}
}
