package myrinet

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Packet is a Myrinet packet in flight. The route is a sequence of absolute
// output-port bytes consumed one per switch hop; the payload (header + data)
// is opaque to the fabric; the CRC is appended by sending hardware and
// checked by the receiver (CheckCRC).
//
// Sends take records from the fabric's free list and NIC.Release returns
// them: nothing reads a *Packet after Release; the GC takes unreleased ones.
type Packet struct {
	// Route holds the output port for each switch on the path, in order.
	Route []byte
	// Ingress records, hop by hop, the port on which the packet entered
	// each switch. Myricom's mapping firmware derives return routes for
	// its special mapping packets; recording ingress ports reproduces
	// that capability for the mapper without giving it topology oracle
	// access.
	Ingress []byte
	// Payload is the header plus data. It is the sender's buffer, not a
	// copy, and is immutable from injection on: the sender may still hold
	// it (a retransmit window does) and the fabric never writes to it — a
	// bit error gives the damaged packet a private copy (see corrupt).
	Payload []byte
	// Src is the injecting NIC's id (diagnostic only; routing never
	// consults it).
	Src int

	// intact marks an injected packet no fault has touched. Its payload is
	// byte for byte what the sending hardware computed the CRC over, so the
	// check holds by construction and crc is never computed; corrupt, the
	// only writer, materialises crc before it flips anything. The zero
	// value — a Packet literal that was never injected — is not intact and
	// is checked against crc in full.
	intact bool
	crc    byte
	// verify is Network.VerifyIntact's mark: crc was recorded at injection
	// anyway, and CheckCRC holds the intact payload to it.
	verify bool

	// owned marks a packet injected with SendOwned: the sender kept no
	// reference to Payload, so whoever consumes the packet may hand the
	// buffer back with NIC.Release.
	owned bool
	// The landing at dst, wire bytes long: bound once per record, posted by end.
	dst  *NIC
	wire int
	land func()
}

// corrupt flips bits of one payload byte, as a bit error on the wire does.
// The damage must stay on this transmission: a retransmit window holding
// the same buffer would otherwise resend the flipped byte under a freshly
// computed — and therefore matching — CRC. The carried CRC is the one the
// sending hardware appended, over the bytes as they were before any
// damage: a packet hit at both ends of its cable keeps the first.
func (pk *Packet) corrupt(i int, mask byte) {
	if pk.intact {
		pk.crc = CRC8(pk.Payload)
		pk.intact = false
	}
	pk.Payload = append([]byte(nil), pk.Payload...)
	pk.Payload[i] ^= mask
}

// CheckCRC reports whether the payload still matches the CRC the sender
// appended — the receiving hardware's check. Only a packet a fault touched
// (or one that was never injected) can fail it, so only those are
// recomputed; Network.VerifyIntact recomputes the rest as well.
func (pk *Packet) CheckCRC() bool {
	if !pk.intact {
		return CRC8(pk.Payload) == pk.crc
	}
	if pk.verify && CRC8(pk.Payload) != pk.crc {
		panic(fmt.Sprintf("myrinet: payload of a packet from NIC %d changed after injection (%d bytes): "+
			"route and payload belong to the fabric from Send on", pk.Src, len(pk.Payload)))
	}
	return true
}

// Endpoint kinds inside the fabric graph.
const (
	kindNone = iota
	kindNIC
	kindSwitch
)

// endpoint identifies what a cable end plugs into.
type endpoint struct {
	kind int
	id   int // NIC id or switch id
	port int // port on that element (0 for NICs)
}

// Switch is an n-port cut-through crossbar.
type Switch struct {
	ID    int
	ports []endpoint
}

// NIC is a network attachment point: one full-duplex link into the fabric,
// a serializing injection resource, and a receive queue drained by whatever
// control program owns the interface.
type NIC struct {
	ID   int
	net  *Network
	comp string // trace and metrics component, "nic<id>"

	peer endpoint      // what the NIC's cable plugs into
	tx   *sim.Resource // injection serialization (one packet at a time)

	// RX is the arrival queue. The LANai control program (or the mapping
	// responder during boot) consumes it.
	RX *sim.Queue[*Packet]

	// down marks the NIC dead (its node crashed): it neither injects nor
	// accepts deliveries until SetDown(false).
	down bool

	// Per-link metrics: packets and wire bytes in each direction.
	mPktsOut, mPktsIn   *trace.Counter
	mBytesOut, mBytesIn *trace.Counter
}

// Network is the fabric: all switches, NICs and cables, plus the timing
// profile. Switch-internal contention is not modeled (the crossbar is
// non-blocking and the paper's experiments never oversubscribe a port);
// serialization is charged at injection and again at the sink by the
// receiving NIC's net-to-SRAM DMA engine.
type Network struct {
	eng      *sim.Engine
	prof     hw.Profile
	switches []*Switch
	nics     []*NIC

	// lastDrop is why the last packet that died in the fabric died, ""
	// while none has; the counts are the net/packets_dropped and
	// net/route_drops counters.
	lastDrop string

	faults      *fault.Plan
	mDrops      *trace.Counter
	mRouteDrops *trace.Counter

	// freeBufs holds released packet buffers, each of capacity bufSize,
	// for NIC.Buf to hand out again. A plain bounded stack rather than a
	// sync.Pool: what it holds depends only on the simulation, so a run's
	// allocation count repeats exactly.
	freeBufs [][]byte
	freePkts []*Packet // released packet records, on freeBufs' terms and bound
	poison   bool
	verify   bool

	idle []*injection // records of finished StartSends, for reuse
}

const (
	// bufSize is the capacity of a pooled packet buffer: a page-sized
	// chunk plus headers, the largest packet the control programs build.
	bufSize = 4096 + 64
	// maxFreeBufs bounds the free list (and so the memory it can pin) at
	// the deepest burst worth absorbing; beyond it buffers go to the GC.
	maxFreeBufs = 64
)

// Buf returns an empty packet buffer with room for n bytes, for the caller
// to append a packet to and pass to SendOwned. It reuses a released buffer
// when it can.
func (nic *NIC) Buf(n int) []byte {
	net := nic.net
	if n > bufSize {
		return make([]byte, 0, n)
	}
	if k := len(net.freeBufs); k > 0 {
		b := net.freeBufs[k-1]
		net.freeBufs = net.freeBufs[:k-1]
		return b[:0]
	}
	return make([]byte, 0, bufSize)
}

// Release ends a consumed packet's life: nothing reads the *Packet after it.
// The record goes back to the fabric's free list, and so does the buffer if
// the sender gave it up (SendOwned); one it may still hold (Send) is not.
func (nic *NIC) Release(pk *Packet) {
	net := nic.net
	b := pk.Payload
	pk.Payload = nil
	if net.poison {
		pk.Src, pk.Route = -1, nil
		for i := range pk.Ingress {
			pk.Ingress[i] = 0xDB
		}
	}
	if len(net.freePkts) < maxFreeBufs {
		net.freePkts = append(net.freePkts, pk)
	}
	if !pk.owned || cap(b) != bufSize || len(net.freeBufs) >= maxFreeBufs {
		return
	}
	if net.poison {
		b = b[:bufSize]
		for i := range b {
			b[i] = 0xDB
		}
	}
	net.freeBufs = append(net.freeBufs, b)
}

// PoisonReleased makes Release overwrite every buffer it recycles with
// 0xDB, so a reader that kept a packet's bytes past its Release sees
// garbage instead of plausible stale data; the record itself reads Src -1,
// a nil Route and 0xDB ingress bytes. A debugging aid for tests.
func (n *Network) PoisonReleased() { n.poison = true }

// VerifyIntact makes every injection record the payload's CRC and every
// CheckCRC of an undamaged packet recompute it, panicking on a mismatch.
// An intact packet passes its check without being read, which would hide
// exactly one bug: a sender writing into a buffer it has already injected
// (eagerly checked, that surfaced as a CRC error at the receiver). A
// debugging aid for tests; results are unaffected.
func (n *Network) VerifyIntact() { n.verify = true }

// New returns an empty fabric.
func New(eng *sim.Engine, prof hw.Profile) *Network {
	return &Network{
		eng:         eng,
		prof:        prof,
		mDrops:      eng.Metrics().Counter("net/packets_dropped"),
		mRouteDrops: eng.Metrics().Counter("net/route_drops"),
	}
}

// SetFaults attaches a fault plan: per-link bit errors and bursts, and
// link/switch outages, all consulted on the packet path. A nil plan means
// a clean fabric.
func (n *Network) SetFaults(pl *fault.Plan) { n.faults = pl }

// Engine returns the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// AddSwitch creates a switch with nports ports (Myrinet's M2F-SW8 has 8).
func (n *Network) AddSwitch(nports int) *Switch {
	s := &Switch{ID: len(n.switches), ports: make([]endpoint, nports)}
	n.switches = append(n.switches, s)
	return s
}

// AddNIC creates an unattached NIC. Its link activity is tracked in the
// engine's metrics registry under "nic<id>/": injection-serialization
// utilization plus packet and wire-byte counters per direction.
func (n *Network) AddNIC() *NIC {
	id := len(n.nics)
	nic := &NIC{
		ID:   id,
		net:  n,
		comp: fmt.Sprintf("nic%d", id),
		tx:   sim.NewResource(n.eng, fmt.Sprintf("myri:nic%d:tx", id)),
		RX:   sim.NewQueue[*Packet](n.eng, fmt.Sprintf("myri:nic%d:rx", id)),
	}
	m := n.eng.Metrics()
	nic.tx.Observe(m.Utilization(nic.comp + "/link_out_utilization"))
	nic.mPktsOut = m.Counter(nic.comp + "/packets_injected")
	nic.mPktsIn = m.Counter(nic.comp + "/packets_delivered")
	nic.mBytesOut = m.Counter(nic.comp + "/bytes_injected")
	nic.mBytesIn = m.Counter(nic.comp + "/bytes_delivered")
	n.nics = append(n.nics, nic)
	return nic
}

// NICs returns all NICs in creation order.
func (n *Network) NICs() []*NIC { return n.nics }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// AttachNIC cables a NIC to a switch port.
func (n *Network) AttachNIC(nic *NIC, sw *Switch, port int) error {
	if nic.peer.kind != kindNone {
		return fmt.Errorf("myrinet: NIC %d already attached", nic.ID)
	}
	if sw.ports[port].kind != kindNone {
		return fmt.Errorf("myrinet: switch %d port %d already in use", sw.ID, port)
	}
	nic.peer = endpoint{kind: kindSwitch, id: sw.ID, port: port}
	sw.ports[port] = endpoint{kind: kindNIC, id: nic.ID}
	return nil
}

// ConnectSwitches cables switch a's port ap to switch b's port bp.
func (n *Network) ConnectSwitches(a *Switch, ap int, b *Switch, bp int) error {
	if a.ports[ap].kind != kindNone || b.ports[bp].kind != kindNone {
		return fmt.Errorf("myrinet: port in use (sw%d:%d or sw%d:%d)", a.ID, ap, b.ID, bp)
	}
	a.ports[ap] = endpoint{kind: kindSwitch, id: b.ID, port: bp}
	b.ports[bp] = endpoint{kind: kindSwitch, id: a.ID, port: ap}
	return nil
}

// SetDown marks the NIC dead or alive. A dead NIC's injections and
// deliveries drop and count; the cluster uses this for node crashes.
func (nic *NIC) SetDown(down bool) { nic.down = down }

// walk resolves a route from nic through the fabric. It returns the
// destination NIC, the number of switch hops, and the per-hop ingress
// ports appended to ingress. A nil destination means the packet died;
// reason says why.
func (n *Network) walk(nic *NIC, route, ingress []byte) (dst *NIC, hops int, _ []byte, reason string) {
	cur := nic.peer
	for i := 0; ; i++ {
		switch cur.kind {
		case kindNone:
			return nil, hops, ingress, "dangling link"
		case kindNIC:
			if i != len(route) {
				return nil, hops, ingress, fmt.Sprintf("reached NIC %d with %d route bytes left", cur.id, len(route)-i)
			}
			return n.nics[cur.id], hops, ingress, ""
		case kindSwitch:
			if i >= len(route) {
				return nil, hops, ingress, fmt.Sprintf("route exhausted inside switch %d", cur.id)
			}
			if n.faults.SwitchDown(cur.id) {
				n.faults.NoteSwitchDrop()
				return nil, hops, ingress, fmt.Sprintf("switch %d down", cur.id)
			}
			sw := n.switches[cur.id]
			ingress = append(ingress, byte(cur.port))
			out := int(route[i])
			if out >= len(sw.ports) {
				return nil, hops, ingress, fmt.Sprintf("switch %d has no port %d", cur.id, out)
			}
			hops++
			cur = sw.ports[out]
		}
	}
}

// wireBytes is the per-packet framing the fabric carries beyond the
// payload: route bytes are stripped hop by hop but serialize at injection,
// and the CRC trails the packet.
func wireBytes(pk *Packet) int { return len(pk.Route) + len(pk.Payload) + 1 }

// Send injects a packet carrying payload along route. It blocks p for the
// injection serialization time (head flit + bytes at link rate), then the
// packet propagates with cut-through hop latency and lands in the
// destination NIC's RX queue. Invalid routes kill the packet silently, as
// on real hardware.
//
// The packet carries route and payload themselves, not copies: neither
// may be modified after the call. The caller may keep reading them and
// may send the same payload again (a retransmission does).
func (nic *NIC) Send(p *sim.Proc, route []byte, payload []byte) {
	nic.inject(p, nic.packet(route, payload, false))
}

// SendOwned is Send for a payload the caller gives up entirely — typically
// one obtained from Buf. The consumer of the packet may Release it.
func (nic *NIC) SendOwned(p *sim.Proc, route []byte, payload []byte) {
	nic.inject(p, nic.packet(route, payload, true))
}

// packet is the one constructor of injected packets: a record from the
// free list when there is one, reset to carry payload along route.
func (nic *NIC) packet(route, payload []byte, owned bool) *Packet {
	net := nic.net
	var pk *Packet
	if k := len(net.freePkts); k > 0 {
		pk, net.freePkts = net.freePkts[k-1], net.freePkts[:k-1]
	} else {
		pk = new(Packet)
		pk.land = func() {
			pk.dst.mPktsIn.Add(1)
			pk.dst.mBytesIn.Add(int64(pk.wire))
			pk.dst.RX.Put(pk)
		}
	}
	*pk = Packet{Route: route, Ingress: pk.Ingress[:0], Payload: payload, Src: nic.ID, owned: owned, land: pk.land}
	return pk
}

func (nic *NIC) inject(p *sim.Proc, pk *Packet) {
	cost := nic.begin(pk)
	nic.tx.Use(p, cost)
	nic.end(pk)
}

// StartSend is Send for a sender with no process to block: the same
// injection, its serialization a continuation on the link
// (sim.Resource.AcquireFn) that queues where a process calling Send now
// would, and holds the link for the same time. done, which may be nil,
// runs in event context once the packet has left — when Send would have
// returned. label names the sender as the link's holder.
func (nic *NIC) StartSend(label string, route, payload []byte, done func()) {
	pk := nic.packet(route, payload, false)
	net := nic.net
	var in *injection
	if k := len(net.idle); k > 0 {
		in, net.idle = net.idle[k-1], net.idle[:k-1]
	} else {
		in = net.newInjection()
	}
	in.nic, in.pk, in.label, in.done = nic, pk, label, done
	in.cost = nic.begin(pk)
	nic.tx.AcquireFn(label, in.onLink)
}

// injection is one StartSend in flight. Its two steps are bound to the
// record once and the record goes back on Network.idle when the packet has
// left, so a steady stream of them allocates only the packets.
type injection struct {
	nic   *NIC
	pk    *Packet
	label string
	cost  sim.Time
	done  func()

	onLink, onEnd func()
}

func (n *Network) newInjection() *injection {
	in := new(injection)
	in.onLink = func() { n.eng.Post(in.cost, in.onEnd) }
	in.onEnd = func() {
		nic, pk, done := in.nic, in.pk, in.done
		in.pk, in.done = nil, nil
		nic.tx.ReleaseFn(in.label)
		nic.end(pk)
		n.idle = append(n.idle, in)
		if done != nil {
			done()
		}
	}
	return in
}

// begin is the half of an injection before the link is held: the CRC mark,
// bit errors on the injecting end of the cable, and the serialization time
// it returns.
func (nic *NIC) begin(pk *Packet) sim.Time {
	n := nic.net
	// The link hardware appends the CRC for free (§3); so does the model,
	// by not computing it until a fault makes the answer matter.
	pk.intact = true
	if n.verify {
		pk.verify, pk.crc = true, CRC8(pk.Payload)
	}

	wire := wireBytes(pk)
	// Bit errors on the injecting end of the cable (§4.2: detected by the
	// receiver's CRC check, not recovered).
	if len(pk.Payload) > 0 && n.faults.CorruptWire(nic.ID, wire, true) {
		pk.corrupt(len(pk.Payload)/2, 0x10)
	}
	return n.prof.LinkFlitCost +
		sim.Time(float64(wire)/n.prof.LinkRate*float64(sim.Second))
}

// end is the half after the packet has been serialized and the link
// released: the counters, then the packet dies or is routed toward its
// destination's RX queue.
func (nic *NIC) end(pk *Packet) {
	n := nic.net
	wire := wireBytes(pk)
	nic.mPktsOut.Add(1)
	nic.mBytesOut.Add(int64(wire))

	// A dead source link kills the packet right after serialization.
	if nic.down || n.faults.LinkDown(nic.ID) {
		if !nic.down {
			n.faults.NoteLinkDrop()
		}
		n.drop(nic, fmt.Sprintf("link at NIC %d down", nic.ID))
		return
	}

	dst, hops, ingress, reason := n.walk(nic, pk.Route, pk.Ingress[:0])
	pk.Ingress = ingress
	if dst == nil {
		n.mRouteDrops.Add(1)
		n.drop(nic, reason)
		return
	}
	// A dead destination link (outage or crashed node) eats the packet at
	// the last hop.
	if dst.down || n.faults.LinkDown(dst.ID) {
		if !dst.down {
			n.faults.NoteLinkDrop()
		}
		n.drop(nic, fmt.Sprintf("link at NIC %d down", dst.ID))
		return
	}
	// Bit errors on the receiving end of the cable. A different byte and
	// mask than the tx end, so double corruption cannot cancel out.
	if len(pk.Payload) > 0 && n.faults.CorruptWire(dst.ID, wire, false) {
		pk.corrupt(len(pk.Payload)/3, 0x04)
	}
	pk.dst, pk.wire = dst, wire
	n.eng.Post(sim.Time(hops)*n.prof.SwitchLatency, pk.land)
}

// drop records a packet death with its reason in metrics and trace. The
// trace instant carries the reason, so a timeline shows *why* each packet
// died, not just that one did.
func (n *Network) drop(nic *NIC, reason string) {
	n.lastDrop = reason
	n.mDrops.Add(1)
	n.eng.TraceInstant(nic.comp, "net", "packet_dropped: "+reason)
}

// ReverseRoute converts the ingress-port record of a received packet into
// a route from the receiver back to the sender.
func ReverseRoute(ingress []byte) []byte {
	out := make([]byte, len(ingress))
	for i, b := range ingress {
		out[len(ingress)-1-i] = b
	}
	return out
}
