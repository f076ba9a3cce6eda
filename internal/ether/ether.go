// Package ether models the commodity Ethernet connecting the cluster
// nodes. The VMMC daemons use it as a slow, reliable, ordered side channel
// to match export and import requests (§4.1); no data-path traffic ever
// touches it. Latency is milliseconds-scale against Myrinet's microseconds,
// so daemon operations are visible as expensive setup, exactly as deployed.
package ether

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message is one Ethernet datagram between daemons.
type Message struct {
	From, To int
	Kind     string
	Body     any
}

// Bus is the shared segment: per-node mailboxes with fixed delivery
// latency and a serializing medium (half-duplex 10/100 era Ethernet).
type Bus struct {
	eng     *sim.Engine
	latency sim.Time
	medium  *sim.Resource
	boxes   map[int]*sim.Queue[Message]
	faults  *fault.Plan

	mSent, mDrops *trace.Counter
}

// New returns a bus with the given one-way delivery latency. It counts the
// datagrams transmitted and those lost to injected faults as the
// "ether/messages_sent" and "ether/messages_dropped" metrics.
func New(eng *sim.Engine, latency sim.Time) *Bus {
	return &Bus{
		eng:     eng,
		latency: latency,
		medium:  sim.NewResource(eng, "ether"),
		boxes:   make(map[int]*sim.Queue[Message]),
		mSent:   eng.Metrics().Counter("ether/messages_sent"),
		mDrops:  eng.Metrics().Counter("ether/messages_dropped"),
	}
}

// SetFaults attaches a fault plan; nil detaches it.
func (b *Bus) SetFaults(pl *fault.Plan) { b.faults = pl }

// Register creates (or returns) node's mailbox.
func (b *Bus) Register(node int) *sim.Queue[Message] {
	if q, ok := b.boxes[node]; ok {
		return q
	}
	q := sim.NewQueue[Message](b.eng, fmt.Sprintf("ether:%d", node))
	b.boxes[node] = q
	return q
}

// Send transmits a message; it blocks the caller for the medium occupancy
// (a small slice of the latency) and delivers after the full latency.
// Sending to an unregistered node panics — daemons register at boot.
func (b *Bus) Send(p *sim.Proc, from, to int, kind string, body any) {
	box, ok := b.boxes[to]
	if !ok {
		panic(fmt.Sprintf("ether: send to unregistered node %d", to))
	}
	b.medium.Use(p, b.latency/10)
	b.mSent.Add(1)
	if b.faults.DropMessage() {
		b.mDrops.Add(1)
		return
	}
	m := Message{From: from, To: to, Kind: kind, Body: body}
	b.eng.After(b.latency+b.faults.ExtraDelay(), func() { box.Put(m) })
}
