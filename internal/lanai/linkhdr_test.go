package lanai

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/myrinet"
	"repro/internal/sim"
)

// The link header names a conversation by the peer's NIC id and the class
// and carries the sequence number, each at full width: what putLinkHdr
// writes, readLinkHdr gives back for every NIC id a cluster can have,
// across sequence wrap and for any class.
func TestLinkHeaderRoundTrip(t *testing.T) {
	for _, nic := range []int{0, 1, 255, 256, 65535, 65536, 1<<31 - 1} {
		c := &linkCore{self: nic}
		for _, seq := range []uint32{0, 1, 255, 256, 1 << 31, 0xFFFFFFFF} {
			for _, class := range []int{0, 1, 7, 256, 1<<31 - 1} {
				for _, typ := range []byte{linkData, linkSyn, linkAck} {
					frame := make([]byte, linkHdrSize)
					c.putLinkHdr(frame, typ, seq, class)
					k, s := readLinkHdr(frame)
					if frame[0] != typ || k != (conv{peer: nic, class: class}) || s != seq {
						t.Errorf("nic %d seq %#x class %d type %#x: read back type %#x, %+v, seq %#x",
							nic, seq, class, typ, frame[0], k, s)
					}
				}
			}
		}
	}
}

// linkFrame builds a link-layer frame: header, then payload.
func linkFrame(typ byte, nic, seq, class uint32, payload ...byte) []byte {
	f := make([]byte, linkHdrSize, linkHdrSize+len(payload))
	f[0] = typ
	binary.BigEndian.PutUint32(f[1:], nic)
	binary.BigEndian.PutUint32(f[5:], seq)
	binary.BigEndian.PutUint32(f[9:], class)
	return append(f, payload...)
}

// Whatever bytes arrive, the link layer's receive side — receive, then
// admit for a data frame — must not panic, and passes up only an
// in-sequence data frame's payload, or a SYN's, which opens a window
// anywhere at or past the expected sequence. Each frame crosses the fabric intact
// to a board whose link layer holds an open window toward the sender, so
// a forged ack has a window to trim, and whose delayed ack is armed by
// any in-sequence packet.
func FuzzReceiveLinkFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{linkData})
	f.Add(linkFrame(linkData, 0, 0, 0)[:linkHdrSize-1])
	f.Add(linkFrame(linkData, 0, 0, 0, 'u', 'p'))
	f.Add(linkFrame(linkData, 0, 0, 0))
	f.Add(linkFrame(linkData, 0, 3, 0, 'g', 'a', 'p'))
	f.Add(linkFrame(linkData, 1<<31-1, 0, 1<<31-1, 'x'))
	f.Add(linkFrame(linkData, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 'x'))
	f.Add(linkFrame(linkSyn, 0, 9, 0, 's', 'y', 'n'))
	f.Add(linkFrame(linkAck, 0, 2, 0))
	f.Add(linkFrame(linkAck, 0, 0xFFFFFFFF, 0))
	f.Add(linkFrame(linkAck, 0, 1, 5))
	f.Add(linkFrame(0x55, 0, 0, 0, 'x'))
	f.Fuzz(func(t *testing.T, frame []byte) {
		cfg := DefaultReliability()
		cfg.AckDelay = 25 * sim.Microsecond
		e, _, a, b, route := reliablePair(t, 1, cfg)
		var up [][]byte
		b.StartReceiver("b:rx", func(data []byte, _ *myrinet.Packet) { up = append(up, data) })
		a.StartReceiver("a:rx", func([]byte, *myrinet.Packet) {})
		e.Go("b:tx", func(p *sim.Proc) {
			for i := 0; i < 3; i++ { // below the ack cadence: the window stays open
				if err := b.SendPacket(p, a.NIC.ID, []byte{0}, []byte("open")); err != nil {
					t.Error(err)
				}
			}
		})
		e.Go("a:raw", func(p *sim.Proc) { a.NIC.Send(p, route, frame) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}

		m := b.Reliable().m
		admitted := m.deliveries.Value() + m.dupDrops.Value() + m.gapDrops.Value()
		isData := len(frame) >= linkHdrSize && (frame[0] == linkData || frame[0] == linkSyn)
		opens := isData && (frame[0] == linkSyn || binary.BigEndian.Uint32(frame[5:]) == 0)
		switch {
		case !isData && (admitted != 0 || len(up) != 0):
			t.Errorf("a frame that is no data frame was sequenced (%d) or passed up (%d)", admitted, len(up))
		case isData && admitted != 1:
			t.Errorf("a data frame was sequenced %d times, want once", admitted)
		case len(up) > 1:
			t.Errorf("one frame passed up %d payloads", len(up))
		case len(up) == 1 && (!opens || !bytes.Equal(up[0], frame[linkHdrSize:])):
			t.Errorf("passed up %q for frame %x: only sequence 0 or a SYN of a fresh conversation goes up, unwrapped", up[0], frame)
		}
		if len(frame) < linkHdrSize && m.acksSent.Value() != 0 {
			t.Errorf("a %d-byte frame drew %d acks", len(frame), m.acksSent.Value())
		}
	})
}
