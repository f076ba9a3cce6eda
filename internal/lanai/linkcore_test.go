package lanai

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The link core driven with no engine at all. A sender (NIC 0) and two
// receivers (NICs 1 and 2) run a core each; the test is their port and
// their fabric. Every frame meets a fate the moment it leaves — it arrives,
// arrives damaged (which leaves the state a loss in the fabric would),
// arrives twice, or is held back until the test lets it land later, behind
// whatever happened meanwhile — and whenever the fabric is quiet the next
// event is a choice too: the sender's next move, any armed timer, a node
// restart, or a held-back frame. The walk tries every sequence of choices
// within a scope and checks, after each one, what go-back-N promises:
//
//  1. per (peer, class), payloads go up in send order and at most once;
//  2. an ack trims only the window of the conversation it names;
//  3. no peer is declared unreachable before MaxRetries retransmit rounds
//     in a row made no progress;
//  4. a send reported OK to a peer still reachable is delivered: a packet
//     that leaves a live window was acknowledged, so it went up, and no
//     send is reported OK into a window that was already discarded.

const (
	walkNodes   = 3 // the sender and its two peers
	walkClasses = 2
	walkWindow  = 2
)

// walkCfg is the link the walk runs: one fruitless round before a verdict,
// and delayed acks, so an ack may be lost that no cadence repeats.
var walkCfg = ReliabilityConfig{MaxRTO: sim.Millisecond, MaxRetries: 1, AckDelay: 25 * sim.Microsecond}

// walkScope bounds a walk. Every walk allows one unreachable verdict.
type walkScope struct {
	sends   int  // sends from NIC 0
	convs   int  // conversations they may spread over, of 2 peers x 2 classes
	restart bool // one node restart, of the sender or a receiver
	dup     bool // one frame that arrives twice
	late    bool // frames held back, one at a time
}

type walkTimer struct {
	node     int
	fire     func()
	canceled bool
}

func (t *walkTimer) Cancel() { t.canceled = true }

// walkFrame is a frame on its way; intact is false once it was damaged.
type walkFrame struct {
	src, dst int
	frame    []byte
	intact   bool
}

// walkNode is one board's core together with its port onto the world.
type walkNode struct {
	w  *linkWorld
	id int
	c  linkCore
}

func (n *walkNode) after(_ sim.Time, fire func()) stopper {
	t := &walkTimer{node: n.id, fire: fire}
	n.w.timers = append(n.w.timers, t)
	return t
}
func (n *walkNode) inject(route, frame []byte) { n.w.put(n.id, route, frame) }

// round resends the window at once: the core sees a round's steps back to
// back.
func (n *walkNode) round(st *txState) {
	n.w.fruitless[st]++
	win := st.unacked
	for i := 0; n.c.resend(st, win, i); i++ {
		n.w.put(n.id, st.route, win[i].frame)
	}
}
func (n *walkNode) wake()         {}
func (n *walkNode) note(string)   {}
func (n *walkNode) fill(*txState) {}

// walkSend is the ledger entry of one send from NIC 0; its payload is its
// index.
type walkSend struct {
	k      conv
	st     *txState
	ok     bool
	killed bool // its window was discarded after it was reported OK
}

// linkWorld is the sender's program, the fabric, the timers and the
// ledgers the invariants are checked against.
type linkWorld struct {
	scope  walkScope
	nodes  [walkNodes]*walkNode
	now    sim.Time
	net    []walkFrame // frames whose fate is still to be chosen, in order
	late   []walkFrame // frames held back
	timers []*walkTimer

	// The sender's program: the send in progress, parked on a full window
	// (blocked) or in the bookkeeping hold before its push.
	cur     *walkSend
	blocked bool

	sends     []*walkSend
	upTo      map[conv]int // (receiver, class) -> index of the last send gone up, +1
	fruitless map[*txState]int
	restarts  int
	dups      int
	log       []string // the moves so far, when logging
	logging   bool
	err       string
}

func newLinkWorld(scope walkScope) *linkWorld {
	w := &linkWorld{scope: scope, upTo: make(map[conv]int), fruitless: make(map[*txState]int)}
	for id := range w.nodes {
		n := &walkNode{w: w, id: id}
		n.c = linkCore{
			self: id, cfg: walkCfg, window: walkWindow, port: n,
			tx:           make(map[conv]*txState),
			rxExpected:   make(map[conv]uint32),
			rxAckPending: make(map[conv]stopper),
			m:            walkMetrics(),
		}
		w.nodes[id] = n
	}
	return w
}

// walkMetrics are counters outside any registry: a world is copied for
// every move it is tried with.
func walkMetrics() rlMetrics {
	c := func() *trace.Counter { return new(trace.Counter) }
	return rlMetrics{c(), c(), c(), c(), c(), c(), c(), c()}
}

// clone copies the world for a move to be tried on: every core's state,
// rebuilt through the core's own constructors so that the copy's timers
// fire into the copy.
func (w *linkWorld) clone() *linkWorld {
	v := *w
	v.net, v.late, v.log = slices.Clone(w.net), slices.Clone(w.late), slices.Clone(w.log)
	v.upTo, v.fruitless, v.timers = maps.Clone(w.upTo), make(map[*txState]int), nil
	sts := make(map[*txState]*txState)
	copyOf := func(st *txState) *txState {
		if c, ok := sts[st]; ok {
			return c
		}
		c := new(txState) // a detached window: discarded, its timer stopped
		*c = *st
		sts[st] = c
		return c
	}
	for id, n := range w.nodes {
		m := &walkNode{w: &v, id: id, c: n.c}
		m.c.port, m.c.tx, m.c.rxAckPending = m, make(map[conv]*txState), make(map[conv]stopper)
		m.c.rxExpected = maps.Clone(n.c.rxExpected)
		m.c.m = walkMetrics()
		m.c.m.unreachable.Add(n.c.m.unreachable.Value())
		for k, st := range n.c.tx {
			c := m.c.open(k.peer, k.class, st.route)
			onTimeout := c.onTimeout
			*c = *st
			c.onTimeout, c.timer, c.unacked = onTimeout, nil, slices.Clone(st.unacked)
			sts[st] = c
		}
		v.nodes[id] = m
	}
	for _, t := range w.timers {
		m := v.nodes[t.node]
		if st, k, ok := w.timerOwner(t); ok && st != nil {
			c := sts[st]
			c.timer = m.after(0, c.onTimeout)
		} else if ok {
			m.c.armDelayedAck(k, []byte{byte(k.peer)})
		}
	}
	for st, n := range w.fruitless {
		v.fruitless[copyOf(st)] = n
	}
	v.sends = make([]*walkSend, len(w.sends))
	for i, s := range w.sends {
		c := *s
		c.st = copyOf(s.st)
		v.sends[i] = &c
		if s == w.cur {
			v.cur = &c
		}
	}
	return &v
}

// put hands a frame to the fabric; a route names its destination NIC, and
// a frame for a NIC outside the walk vanishes.
func (w *linkWorld) put(src int, route, frame []byte) {
	if dst := int(route[0]); dst < walkNodes {
		w.net = append(w.net, walkFrame{src: src, dst: dst, frame: frame, intact: true})
	}
}

func (w *linkWorld) fail(format string, args ...any) {
	if w.err == "" {
		w.err = fmt.Sprintf(format, args...)
	}
}

// verdicts counts the sender's unreachable declarations.
func (w *linkWorld) verdicts() int64 { return w.nodes[0].c.m.unreachable.Value() }

// walkMove is one move the world can make next: what it is and what it
// acts on.
type walkMove struct {
	kind int
	i    int
	k    conv
}

const (
	moveDeliver = iota
	moveCorrupt
	moveDuplicate
	moveHoldBack
	moveSend
	moveWake
	movePush
	moveLateArrives
	moveFire
	moveRestart
)

// moves lists every move available in the current state, in a fixed
// order: the fate of the next frame while one is on its way, else every
// event that may come next.
func (w *linkWorld) moves() []walkMove {
	var ms []walkMove
	if len(w.net) > 0 {
		ms = append(ms, walkMove{kind: moveDeliver}, walkMove{kind: moveCorrupt})
		if w.scope.dup && w.dups == 0 {
			ms = append(ms, walkMove{kind: moveDuplicate})
		}
		if w.scope.late && len(w.late) == 0 {
			ms = append(ms, walkMove{kind: moveHoldBack})
		}
		return ms
	}
	switch {
	case w.cur == nil && len(w.sends) < w.scope.sends:
		for _, k := range w.sendTargets() {
			ms = append(ms, walkMove{kind: moveSend, k: k})
		}
	case w.cur != nil && w.blocked:
		if st := w.cur.st; st.dead || len(st.unacked) < walkWindow {
			ms = append(ms, walkMove{kind: moveWake})
		}
	case w.cur != nil:
		ms = append(ms, walkMove{kind: movePush})
	}
	for i := range w.late {
		ms = append(ms, walkMove{kind: moveLateArrives, i: i})
	}
	for i, t := range w.timers {
		// One verdict per walk: a timeout that would declare a second one
		// is left unfired.
		if st, _, ok := w.timerOwner(t); !ok || st != nil && st.retries >= walkCfg.MaxRetries && w.verdicts() > 0 {
			continue
		}
		ms = append(ms, walkMove{kind: moveFire, i: i})
	}
	if w.scope.restart && w.restarts == 0 {
		ms = append(ms, walkMove{kind: moveRestart, i: 0}, walkMove{kind: moveRestart, i: 1})
	}
	return ms
}

// sendTargets are the conversations the next send may open or continue,
// up to symmetry: the peers are interchangeable until used, and so are the
// classes toward each peer.
func (w *linkWorld) sendTargets() []conv {
	var ks []conv
	var classes [walkNodes]int
	used := 0
	for _, s := range w.sends {
		if c := s.k.class + 1; c > classes[s.k.peer] {
			used += c - classes[s.k.peer]
			classes[s.k.peer] = c
		}
	}
	for peer := 1; peer < walkNodes; peer++ {
		n := classes[peer]
		if used < w.scope.convs {
			n++
		}
		for class := 0; class < n && class < walkClasses; class++ {
			ks = append(ks, conv{peer: peer, class: class})
		}
		if classes[peer] == 0 {
			break // the first peer not used yet stands for all of them
		}
	}
	return ks
}

// describe names a move in the current state.
func (w *linkWorld) describe(m walkMove) string {
	frame := func(f walkFrame) string {
		if len(f.frame) < linkHdrSize {
			return fmt.Sprintf("%d-byte frame %d->%d", len(f.frame), f.src, f.dst)
		}
		k, seq := readLinkHdr(f.frame)
		name := map[byte]string{linkData: "data", linkSyn: "syn", linkAck: "ack"}[f.frame[0]]
		return fmt.Sprintf("%s %d class %d %d->%d", name, seq, k.class, f.src, f.dst)
	}
	switch m.kind {
	case moveDeliver, moveCorrupt, moveDuplicate, moveHoldBack:
		return []string{"deliver", "corrupt", "duplicate", "hold back"}[m.kind] + " " + frame(w.net[0])
	case moveSend:
		return fmt.Sprintf("send %d to NIC %d class %d", len(w.sends), m.k.peer, m.k.class)
	case moveWake:
		return "the parked send wakes"
	case movePush:
		return "the send in its hold pushes"
	case moveLateArrives:
		return "held-back " + frame(w.late[m.i]) + " arrives"
	case moveFire:
		t := w.timers[m.i]
		if st, k, _ := w.timerOwner(t); st != nil {
			return fmt.Sprintf("NIC %d's retransmit timer to %+v fires", t.node, st.conv)
		} else {
			return fmt.Sprintf("NIC %d's delayed ack to %+v fires", t.node, k)
		}
	}
	return fmt.Sprintf("restart NIC %d", m.i)
}

// timerOwner names what the live timer t times: a window's retransmit
// timeout, or else the delayed ack of a conversation. ok is false for a
// cancelled timer.
func (w *linkWorld) timerOwner(t *walkTimer) (st *txState, k conv, ok bool) {
	c := &w.nodes[t.node].c
	for _, st := range c.tx {
		if st.timer == t {
			return st, conv{}, true
		}
	}
	for k, p := range c.rxAckPending {
		if p == t {
			return nil, k, true
		}
	}
	if !t.canceled {
		panic("a live timer with no owner")
	}
	return nil, conv{}, false
}

// apply makes a move and checks the invariants the move could break.
func (w *linkWorld) apply(m walkMove) {
	if w.logging {
		w.log = append(w.log, w.describe(m))
	}
	w.now += sim.Microsecond
	type mark struct {
		st    *txState
		live  bool
		acked uint32 // sequence below which the window has been acknowledged
	}
	var before []mark
	for _, st := range w.nodes[0].c.tx {
		before = append(before, mark{st, !st.dead, st.nextSeq - uint32(len(st.unacked))})
	}
	verdicts := w.verdicts()

	switch m.kind {
	case moveDeliver, moveCorrupt, moveDuplicate, moveHoldBack:
		f := w.net[0]
		w.net = w.net[1:]
		switch m.kind {
		case moveCorrupt:
			f.intact = false
		case moveDuplicate:
			w.dups++
			w.net = append(w.net, f)
		case moveHoldBack:
			w.late = append(w.late, f)
		}
		if m.kind != moveHoldBack {
			w.deliver(f)
		}
	case moveSend:
		st := w.nodes[0].c.open(m.k.peer, m.k.class, []byte{byte(m.k.peer)})
		w.cur = &walkSend{k: m.k, st: st}
		w.sends = append(w.sends, w.cur)
		w.blocked = len(st.unacked) >= walkWindow
	case moveWake:
		// A parked sender fails if its window was discarded, else goes on
		// to the hold.
		if w.blocked = false; w.cur.st.dead {
			w.cur = nil
		}
	case movePush:
		w.push()
	case moveLateArrives:
		f := w.late[m.i]
		w.late = slices.Delete(w.late, m.i, m.i+1)
		w.deliver(f)
	case moveFire:
		t := w.timers[m.i]
		w.timers = slices.Delete(w.timers, m.i, m.i+1)
		t.fire()
	case moveRestart:
		w.restart(m.i)
	}
	w.timers = slices.DeleteFunc(w.timers, func(t *walkTimer) bool { return t.canceled })

	for _, b := range before {
		st := b.st
		if acked := st.nextSeq - uint32(len(st.unacked)); b.live && !st.dead && acked != b.acked {
			w.fruitless[st] = 0
		}
		if b.live && st.dead && w.verdicts() > verdicts && w.fruitless[st] < walkCfg.MaxRetries {
			w.fail("window to %+v declared unreachable after %d fruitless rounds, want %d", st.conv, w.fruitless[st], walkCfg.MaxRetries)
		}
	}
	for i, s := range w.sends {
		if !s.ok || s.killed {
			continue
		}
		if s.st.dead {
			s.killed = true
			continue
		}
		inWindow := false
		for _, bp := range s.st.unacked {
			inWindow = inWindow || int(bp.frame[linkHdrSize]) == i
		}
		if !inWindow && w.upTo[s.k] <= i {
			w.fail("send %d to %+v was acknowledged but never went up", i, s.k)
		}
	}
}

// push is the end of the sender's hold, exactly as ReliableLink.send goes
// on.
func (w *linkWorld) push() {
	s := w.cur
	w.cur = nil
	frame := append(make([]byte, linkHdrSize, linkHdrSize+1), byte(len(w.sends)-1))
	dead := s.st.dead
	if err := w.nodes[0].c.push(s.st, frame, w.now); err != nil {
		return
	}
	if dead {
		w.fail("a send was reported OK into a window already discarded")
	}
	s.ok = true
	if !s.st.suspended {
		w.put(0, s.st.route, frame)
	}
}

// restart crashes and reboots one node, as vmmc's RestartNode does: its
// board resets, every other board forgets its conversations with it, and
// the frames on its dark link are lost.
func (w *linkWorld) restart(id int) {
	w.restarts++
	w.nodes[id].c.Reset()
	for _, n := range w.nodes {
		if n.id != id {
			n.c.ResetPeer(id)
		}
	}
	w.late = slices.DeleteFunc(w.late, func(f walkFrame) bool { return f.src == id || f.dst == id })
	if id == 0 {
		w.cur, w.blocked = nil, false // the send in progress died with the LCP
	}
}

// deliver hands f to its destination's receive path.
func (w *linkWorld) deliver(f walkFrame) {
	n := w.nodes[f.dst]
	type mark struct {
		st      *txState
		next, n int
	}
	var before []mark
	for _, st := range n.c.tx {
		before = append(before, mark{st, int(st.nextSeq), len(st.unacked)})
	}
	isData := n.c.receive(f.frame, f.intact, w.now)
	from := conv{peer: -1}
	if len(f.frame) >= linkHdrSize {
		from, _ = readLinkHdr(f.frame)
	}
	for _, b := range before {
		if (mark{b.st, int(b.st.nextSeq), len(b.st.unacked)}) != b && b.st.conv != from {
			w.fail("a frame from NIC %d class %d changed NIC %d's window to %+v", from.peer, from.class, f.dst, b.st.conv)
		}
	}
	if !isData {
		return
	}
	data, ack := n.c.admit(f.frame, []byte{byte(f.src)})
	if ack != nil {
		w.put(f.dst, []byte{byte(f.src)}, ack)
	}
	if data == nil || from.peer == walkOutsider {
		return
	}
	id, to := int(data[0]), conv{peer: f.dst, class: from.class}
	if f.src != 0 || len(data) != 1 || id >= len(w.sends) || w.sends[id].k != to {
		w.fail("NIC %d passed up payload %d from NIC %d class %d, which was never sent there", f.dst, id, f.src, from.class)
		return
	}
	if id < w.upTo[to] {
		w.fail("NIC %d passed up send %d after send %d: out of order or twice", f.dst, id, w.upTo[to]-1)
	}
	w.upTo[to] = id + 1
}

// key hashes the state without its history: everything the rest of the
// walk can depend on.
func (w *linkWorld) key() uint64 {
	b := make([]byte, 0, 512)
	num := func(vs ...int) {
		for _, v := range vs {
			b = strconv.AppendInt(append(b, ','), int64(v), 10)
		}
	}
	flag := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	frames := func(tag byte, fs []walkFrame) {
		for _, f := range fs {
			b = append(append(b, tag), f.frame...)
			num(f.src, f.dst, flag(f.intact))
		}
	}
	for _, n := range w.nodes {
		for _, k := range walkConvs {
			if st := n.c.tx[k]; st != nil {
				b = append(b, 'w')
				num(n.id, k.peer, k.class, int(st.nextSeq), st.retries, w.fruitless[st], flag(st.timer != nil),
					flag(st.dead), flag(st.suspended), flag(st.syn))
				for _, bp := range st.unacked {
					b = append(b, bp.frame...)
				}
			}
			if next, ok := n.c.rxExpected[k]; ok {
				b = append(b, 'r')
				num(n.id, k.peer, k.class, int(next), flag(n.c.rxAckPending[k] != nil))
			}
		}
	}
	frames('f', w.net)
	frames('l', w.late)
	if w.cur != nil {
		b = append(b, 'h')
		num(flag(w.blocked), flag(w.cur.st.dead), flag(w.cur.st == w.nodes[0].c.tx[w.cur.k]))
	}
	for _, s := range w.sends {
		b = append(b, 's')
		num(s.k.peer, s.k.class, flag(s.ok), flag(s.killed))
	}
	for _, k := range walkConvs {
		num(w.upTo[k])
	}
	num(w.restarts, w.dups, int(w.verdicts()))
	h := uint64(14695981039346656037) // FNV-1a
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// walkConvs is every conversation in the walk, in order.
var walkConvs = func() (ks []conv) {
	for peer := 0; peer < walkNodes; peer++ {
		for class := 0; class < walkClasses; class++ {
			ks = append(ks, conv{peer: peer, class: class})
		}
	}
	return ks
}()

// playLinkWorld makes the moves path picks, each byte an index into the
// moves then available (wrapping), and stops at the first broken invariant
// or when no move is left. With forge set, a walkForge byte is no index:
// the next byte gives a length, and that many bytes arrive at the sender as
// a frame from walkOutsider, a NIC with no conversation in the walk.
func playLinkWorld(scope walkScope, path []byte, logging, forge bool) *linkWorld {
	w := newLinkWorld(scope)
	w.logging = logging
	for len(path) > 0 && w.err == "" {
		c := path[0]
		path = path[1:]
		if forge && c == walkForge && len(path) > 0 {
			n := min(int(path[0]), len(path)-1)
			frame := slices.Clone(path[1 : 1+n])
			path = path[1+n:]
			if len(frame) >= 5 {
				binary.BigEndian.PutUint32(frame[1:], walkOutsider)
			}
			w.net = append(w.net, walkFrame{src: walkOutsider, dst: 0, frame: frame, intact: true})
			c = 0 // the next frame arrives
		}
		ms := w.moves()
		if len(ms) == 0 {
			break
		}
		w.apply(ms[int(c)%len(ms)])
	}
	return w
}

// walkForge marks a forged frame in a FuzzLinkCore input; walkOutsider is
// the NIC it claims to come from.
const (
	walkForge    = 0xFF
	walkOutsider = 7
)

// walkLinkCore tries every sequence of moves within scope, depth first,
// and returns the number of distinct states. A broken invariant fails the
// test with a shortest sequence of moves that breaks it, which a second,
// breadth-first walk finds.
func walkLinkCore(t *testing.T, scope walkScope) int {
	root := newLinkWorld(scope)
	seen := map[uint64]bool{root.key(): true}
	var broken bool
	var walk func(w *linkWorld)
	walk = func(w *linkWorld) {
		ms := w.moves()
		for i, m := range ms {
			v := w
			if i < len(ms)-1 {
				v = w.clone() // the last move may have the parent
			}
			v.apply(m)
			if broken = v.err != ""; broken {
				return
			}
			if k := v.key(); !seen[k] {
				seen[k] = true
				if walk(v); broken {
					return
				}
			}
		}
	}
	if walk(root); broken {
		path := shortestBreak(scope)
		w := playLinkWorld(scope, path, true, false)
		t.Fatalf("%s after %d moves (FuzzLinkCore input %q):\n  %s", w.err, len(path), path, strings.Join(w.log, "\n  "))
	}
	return len(seen)
}

// shortestBreak walks scope breadth first and returns a shortest path to a
// broken invariant, nil if there is none.
func shortestBreak(scope walkScope) []byte {
	type state struct {
		w    *linkWorld
		path []byte
	}
	root := newLinkWorld(scope)
	seen := map[uint64]bool{root.key(): true}
	for frontier := []state{{root, nil}}; len(frontier) > 0; {
		var next []state
		for _, s := range frontier {
			for i, m := range s.w.moves() {
				w := s.w.clone()
				w.apply(m)
				path := append(s.path[:len(s.path):len(s.path)], byte(i))
				if w.err != "" {
					return path
				}
				if k := w.key(); !seen[k] {
					seen[k] = true
					next = append(next, state{w, path})
				}
			}
		}
		frontier = next
	}
	return nil
}

// The scopes the walk covers, each in well under a second: every fate of
// every frame on one conversation, and three sends spread over all four.
var (
	walkDeep = walkScope{sends: 4, convs: 1, restart: true, dup: true, late: true}
	walkWide = walkScope{sends: 3, convs: 4, restart: true}
)

// TestLinkCoreExhaustive walks every sequence of moves in each scope.
func TestLinkCoreExhaustive(t *testing.T) {
	for _, sc := range []struct {
		name  string
		scope walkScope
	}{{"one conversation, every fate", walkDeep}, {"two peers by two classes", walkWide}} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			t.Logf("%d states", walkLinkCore(t, sc.scope))
		})
	}
}

// FuzzLinkCore plays arbitrary move sequences in the widest scope, with
// forged frames from a stranger among them, and holds the core to the
// walk's invariants. The first seeds are the walk's shortest breaks of a
// core that let a window discarded by a verdict take its sequence along: a
// send reported OK into a window a restart had just discarded, and a send
// acknowledged by a duplicate of the old window's packet but never
// delivered. The rest are FuzzReceiveLinkFrame's frames, forged into a
// conversation under way.
func FuzzLinkCore(f *testing.F) {
	f.Add([]byte("\x00\x02\x00"))
	f.Add([]byte("\x00\x00\x00\x03\x01\x04\x00\x00\x00\x00"))
	opened := []byte{0, 0, 1} // a send to NIC 1 is under way, its data lost
	for _, frame := range [][]byte{
		{}, {linkData}, linkFrame(linkData, 0, 0, 0)[:linkHdrSize-1], linkFrame(linkData, 0, 0, 0, 'u', 'p'),
		linkFrame(linkData, 0, 3, 0, 'g', 'a', 'p'), linkFrame(linkData, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 'x'),
		linkFrame(linkSyn, 0, 9, 1, 'x'), linkFrame(linkAck, 0, 2, 0), linkFrame(linkAck, 0, 0xFFFFFFFF, 0),
		linkFrame(linkAck, 0, 1, 5), linkFrame(0x55, 0, 0, 0, 'x'),
	} {
		f.Add(append(append(slices.Clone(opened), walkForge, byte(len(frame))), frame...))
	}
	scope := walkScope{sends: 4, convs: 4, restart: true, dup: true, late: true}
	f.Fuzz(func(t *testing.T, path []byte) {
		if w := playLinkWorld(scope, path, false, true); w.err != "" {
			w = playLinkWorld(scope, path, true, true)
			t.Fatalf("%s:\n  %s", w.err, strings.Join(w.log, "\n  "))
		}
	})
}
