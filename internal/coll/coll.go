// Package coll implements the two collectives the repository's workloads
// run — barrier and all-reduce — as a user-level library over VMMC.
// It is an extension beyond the paper's scope, but built strictly from
// the paper's primitives: a communicator is formed with the existing
// export/import handshakes (§4.2-4.3), data moves with deliberate-update
// SendMsg transfers (§2), and completion is notification-driven (§2):
// every payload and control message carries a notification, the per-rank
// handler accounts for it, and waiting ranks park on a condition variable
// instead of polling.
//
// Each ordered pair of ranks (s, r) has a dedicated channel: a window
// exported by r and imported by s, laid out as one signal page followed
// by G payload slots. Control signals (barrier tokens, flow-control
// credits) are 4-byte short sends into fixed signal-page offsets — the
// short-send path copies them inline at post time, so they need no flow
// control of their own and their content is irrelevant (the notification
// count is the information). Payload messages are credit-gated: a sender
// may have at most G messages outstanding per channel, so slot k mod G is
// reused only after the receiver consumed message k-G and returned its
// credit.
package coll

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// tagBase is where communicator channel tags start; tag(r, s) =
// tagBase + r<<8 + s names the window rank r exports for sender s.
const tagBase uint32 = 0x434C0000 // "CL"

// The credit window of one channel: slots is G, the payload pipeline
// depth, and slotBytes (whole pages) is the unit large messages are
// chunked into.
const (
	slots     = 2
	slotBytes = 16 << 10
)

// MaxRanks bounds communicator size: tags encode ranks in 8 bits, and the
// per-process outgoing page table bounds how many windows one rank can
// import anyway.
const MaxRanks = 256

// Signal-page offsets. Tokens and credits are counting signals: arrival
// order per channel is FIFO, so a counter per kind per sender suffices
// and overwrites of the 4-byte payload are harmless.
const (
	offToken  = 0 // barrier/synchronization token
	offCredit = 8 // flow-control credit grant
	sigBytes  = 4
)

// Options configures communicator construction. It has no fields: the
// tag base and the credit window are constants, and the type stays for
// the callers that pass it.
type Options struct{}

// group is the state shared by all ranks of one communicator.
type group struct {
	n     int
	model CostModel
	m     metrics
}

// metrics are the communicator-wide registry counters.
type metrics struct {
	barriers, allreduces             *trace.Counter
	payloadMsgs, payloadBytes        *trace.Counter
	signals, creditStalls, protoErrs *trace.Counter
}

func newMetrics(r *trace.Registry) metrics {
	return metrics{
		barriers:     r.Counter("coll/barriers"),
		allreduces:   r.Counter("coll/allreduces"),
		payloadMsgs:  r.Counter("coll/payload_msgs"),
		payloadBytes: r.Counter("coll/payload_bytes"),
		signals:      r.Counter("coll/signals"),
		creditStalls: r.Counter("coll/credit_stalls"),
		protoErrs:    r.Counter("coll/protocol_errors"),
	}
}

// arrival records one delivered payload message awaiting consumption.
type arrival struct {
	off int // offset within the channel window
	n   int
}

// chanOut is the sending side of one channel (this rank into peer).
type chanOut struct {
	base    vmmc.ProxyAddr // import of the peer's window for us
	sent    int            // payload messages posted
	credits int            // credits granted back by the peer
}

// chanIn is the receiving side of one channel (peer into this rank).
type chanIn struct {
	va       mem.VirtAddr // base of the window we export for the peer
	tokens   int          // signal tokens delivered (handler)
	tokTaken int          // signal tokens consumed (waitToken)
	queue    []arrival    // payload arrivals pending consumption
}

// Comm is one rank's handle on a communicator. All methods must be called
// from that rank's own simulation process; the notification handler (which
// runs in the driver) is the only other writer of its state.
type Comm struct {
	g    *group
	rank int
	proc *vmmc.Process
	cond *sim.Cond // woken by the notification handler on any arrival
	comp string    // trace component, "coll/rank<r>"

	out []chanOut // indexed by peer rank; out[rank] unused
	in  []chanIn  // indexed by peer rank; in[rank] unused

	sendBuf mem.VirtAddr // staging for one outgoing payload chunk
	sigBuf  mem.VirtAddr // staging for 4-byte signals (content ignored)

	// scratch receives the pieces a reduction folds in (see reduceScratch).
	scratch []byte

	// round counts step() calls and lastStep names the latest, so a wedged
	// credit wait can report where in the algorithm it stuck; stall is
	// non-nil exactly while this rank is parked awaiting credits (read by
	// the group's deadlock wrapper, see Build).
	round    int
	lastStep string
	stall    *CreditStall
}

// Rank returns this handle's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Model returns the cost model driving automatic algorithm selection.
func (c *Comm) Model() CostModel { return c.g.model }

// tag names the window rank r exports for messages sent by rank s.
func (g *group) tag(r, s int) uint32 {
	return tagBase + uint32(r)<<8 + uint32(s)
}

// Build forms a communicator over the given processes: procs[i] becomes
// rank i. It runs the full export/import handshake mesh in the calling
// process p (setup, not measured time) and returns one handle per rank.
// Ranks may live on any mix of nodes, including sharing one.
func Build(p *sim.Proc, procs []*vmmc.Process, _ Options) ([]*Comm, error) {
	n := len(procs)
	if n == 0 {
		return nil, fmt.Errorf("coll: empty communicator")
	}
	if n > MaxRanks {
		return nil, fmt.Errorf("coll: %d ranks exceeds MaxRanks (%d)", n, MaxRanks)
	}
	eng := procs[0].Node.Eng
	g := &group{n: n, m: newMetrics(eng.Metrics()), model: ModelFromProfile(procs[0].Node.Prof)}

	comms := make([]*Comm, n)
	for r, proc := range procs {
		c := &Comm{
			g:    g,
			rank: r,
			proc: proc,
			cond: sim.NewCond(eng),
			comp: fmt.Sprintf("coll/rank%d", r),
			out:  make([]chanOut, n),
			in:   make([]chanIn, n),
		}
		var err error
		if c.sendBuf, err = proc.Malloc(slotBytes); err != nil {
			return nil, fmt.Errorf("coll: rank %d staging: %w", r, err)
		}
		if c.sigBuf, err = proc.Malloc(mem.PageSize); err != nil {
			return nil, fmt.Errorf("coll: rank %d signal staging: %w", r, err)
		}
		comms[r] = c
	}

	// Phase 1: every rank exports one window per peer and registers the
	// notification handler for that channel. The allowed list restricts
	// each window to its designated sender (§4.3 protection).
	winBytes := mem.PageSize + slots*slotBytes
	for r, c := range comms {
		for s := range procs {
			if s == r {
				continue
			}
			va, err := c.proc.Malloc(winBytes)
			if err != nil {
				return nil, fmt.Errorf("coll: rank %d window for %d: %w", r, s, err)
			}
			c.in[s].va = va
			tag := g.tag(r, s)
			allowed := []vmmc.ProcID{procs[s].ID()}
			if err := c.proc.Export(p, tag, va, winBytes, allowed, true); err != nil {
				return nil, fmt.Errorf("coll: rank %d export for %d: %w", r, s, err)
			}
			c.proc.RegisterHandler(tag, c.makeHandler(s))
		}
	}

	// Phase 2: every rank imports each peer's window for it.
	for r, c := range comms {
		for s := range procs {
			if s == r {
				continue
			}
			base, _, err := c.proc.Import(p, procs[s].Node.ID, g.tag(s, r))
			if err != nil {
				return nil, fmt.Errorf("coll: rank %d import from %d: %w", r, s, err)
			}
			c.out[s].base = base
		}
	}

	// If the simulation ever wedges while any of this communicator's ranks
	// is parked in a credit wait, annotate the engine's generic deadlock
	// report with the stuck ranks' protocol state. The hook only runs on an
	// actual stall, so healthy runs are untouched.
	eng.AddDeadlockWrapper(func(err error) error {
		var stalls []CreditStall
		for _, c := range comms {
			if c.stall != nil {
				stalls = append(stalls, *c.stall)
			}
		}
		if len(stalls) == 0 {
			return err
		}
		return &CreditDeadlockError{Stalls: stalls, Err: err}
	})
	return comms, nil
}

// makeHandler returns the notification handler for the channel carrying
// messages from peer. It runs in the driver's signal event, so it never
// blocks: it only does accounting and wakes the rank; all modeled time
// (interrupt entry, signal delivery) is already charged by the driver.
func (c *Comm) makeHandler(peer int) vmmc.NotifyHandler {
	return func(from vmmc.ProcID, tag uint32, offset, length int) {
		switch {
		case offset == offToken && length == sigBytes:
			c.in[peer].tokens++
		case offset == offCredit && length == sigBytes:
			c.out[peer].credits++
		case offset >= mem.PageSize:
			c.in[peer].queue = append(c.in[peer].queue, arrival{off: offset, n: length})
		default:
			// A message that is neither a recognized signal nor inside a
			// payload slot: protocol corruption; count it and drop.
			c.g.m.protoErrs.Add(1)
			return
		}
		c.cond.Broadcast()
	}
}

// signal posts a 4-byte counting signal into peer's window at off. Short
// sends copy inline at post time, so sigBuf is immediately reusable and
// the call returns without waiting.
func (c *Comm) signal(p *sim.Proc, peer int, off int) error {
	if err := c.proc.Write(c.sigBuf, []byte{0x5c, 0, 0, 0}); err != nil {
		return err
	}
	dest := c.out[peer].base + vmmc.ProxyAddr(off)
	if err := c.proc.SendMsgSync(p, c.sigBuf, dest, sigBytes, vmmc.SendOptions{Notify: true}); err != nil {
		return fmt.Errorf("coll: rank %d signal to %d: %w", c.rank, peer, err)
	}
	c.g.m.signals.Add(1)
	return nil
}

// token sends a synchronization token to peer.
func (c *Comm) token(p *sim.Proc, peer int) error { return c.signal(p, peer, offToken) }

// waitToken parks until a token from peer is available, then consumes it.
func (c *Comm) waitToken(p *sim.Proc, peer int) {
	in := &c.in[peer]
	for in.tokTaken >= in.tokens {
		c.cond.Wait(p)
	}
	in.tokTaken++
}

// sendPayload transfers data to peer over the credited slot protocol,
// splitting it into slotBytes chunks. Each chunk is one notifying SendMsg
// into the next slot; the sender stalls when G chunks are uncredited.
func (c *Comm) sendPayload(p *sim.Proc, peer int, data []byte) error {
	g := c.g
	out := &c.out[peer]
	for off := 0; off < len(data); off += slotBytes {
		end := off + slotBytes
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		if out.sent-out.credits >= slots {
			g.m.creditStalls.Add(1)
			c.stall = &CreditStall{
				Rank:  c.rank,
				Peer:  peer,
				Round: c.round,
				Step:  c.lastStep,
				Tag:   g.tag(peer, c.rank),
			}
			for out.sent-out.credits >= slots {
				c.cond.Wait(p)
			}
			c.stall = nil
		}
		slot := out.sent % slots
		// The staging write models sending straight out of user memory
		// (deliberate update is zero-copy on the send side); SendMsgSync
		// returns once the data has left host memory, so the staging
		// buffer is reusable for the next chunk.
		if err := c.proc.Write(c.sendBuf, chunk); err != nil {
			return err
		}
		dest := out.base + vmmc.ProxyAddr(mem.PageSize+slot*slotBytes)
		if err := c.proc.SendMsgSync(p, c.sendBuf, dest, len(chunk), vmmc.SendOptions{Notify: true}); err != nil {
			return fmt.Errorf("coll: rank %d payload to %d: %w", c.rank, peer, err)
		}
		out.sent++
		g.m.payloadMsgs.Add(1)
		g.m.payloadBytes.Add(int64(len(chunk)))
	}
	return nil
}

// recvPayload waits for len(dst) bytes from peer — the chunks the peer's
// matching sendPayload produced — copies each one out of its bounce slot
// straight into dst (the one library copy this design pays, charged at
// bcopy rate, and the only one the host makes) and returns the slot's
// credit.
func (c *Comm) recvPayload(p *sim.Proc, peer int, dst []byte) error {
	in := &c.in[peer]
	nmsg := (len(dst) + slotBytes - 1) / slotBytes
	got := 0
	for i := 0; i < nmsg; i++ {
		for len(in.queue) == 0 {
			c.cond.Wait(p)
		}
		// Popped in place, so the handler's next append reuses the array.
		a := in.queue[0]
		in.queue = in.queue[:copy(in.queue, in.queue[1:])]
		if got+a.n > len(dst) {
			return fmt.Errorf("coll: rank %d overrun from %d: %d+%d > %d",
				c.rank, peer, got, a.n, len(dst))
		}
		if err := c.proc.ReadInto(in.va+mem.VirtAddr(a.off), dst[got:got+a.n]); err != nil {
			return err
		}
		c.proc.Node.CPU.Bcopy(p, a.n)
		got += a.n
		if err := c.signal(p, peer, offCredit); err != nil {
			return err
		}
	}
	if got != len(dst) {
		return fmt.Errorf("coll: rank %d short receive from %d: %d of %d bytes",
			c.rank, peer, got, len(dst))
	}
	return nil
}

// reduceScratch returns an n-byte buffer for the pieces a reduction receives
// before folding them in. It is the rank's own and grows only when a call
// needs more than any before: a tree step asks for the whole vector, a ring
// step for at most one credit window (pipeBytes).
func (c *Comm) reduceScratch(n int) []byte {
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	return c.scratch[:n]
}

// step emits a per-phase instant (one per algorithm round, not per chunk)
// and records the round position for credit-stall diagnostics.
func (c *Comm) step(name string) {
	c.round++
	c.lastStep = name
	eng := c.proc.Node.Eng
	if eng.Trace().Enabled() {
		eng.TraceInstant(c.comp, "coll", name)
	}
}
