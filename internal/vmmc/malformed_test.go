package vmmc

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Hostile or damaged packets straight off the wire: the LCP must drop
// every malformed shape, count it, and keep serving.

func injectRaw(c *Cluster, payload []byte) {
	nic := c.Net.NICs()[0]
	c.Eng.Go("injector", func(p *simProc) {
		nic.Send(p, []byte{1}, payload)
	})
}

// malformedPayloads builds every malformed packet shape, for a receiver
// whose export covers the frames at pa and pa2 and not outside.
// FuzzDecodeHeader is seeded from the same shapes.
func malformedPayloads(pa, pa2, outside mem.PhysAddr) []struct {
	name    string
	payload []byte
} {
	good := func() msgHeader {
		return msgHeader{DataLen: 4, Addr1: pa, Len1: 4}
	}
	return []struct {
		name    string
		payload []byte
	}{
		{"empty payload", nil},
		{"truncated header", []byte{hdrMagic, 1, 2}},
		{"datalen larger than payload", func() []byte {
			h := good()
			h.DataLen = 100
			return append(h.appendTo(nil), 1, 2, 3, 4)
		}()},
		{"datalen zero", func() []byte {
			h := good()
			h.DataLen = 0
			return h.appendTo(nil)
		}()},
		{"len1 beyond data", func() []byte {
			h := good()
			h.Len1 = 4000
			h.Frame2 = uint32(pa2.Frame())
			return append(h.appendTo(nil), 1, 2, 3, 4)
		}()},
		{"piece outside any export", func() []byte {
			h := good()
			h.Addr1 = outside
			return append(h.appendTo(nil), 1, 2, 3, 4)
		}()},
		// Two pages of data scattered onto two exported frames: every
		// piece is in bounds, but the packet is twice what the one-page
		// receive staging buffer holds.
		{"chunk larger than a page", func() []byte {
			h := msgHeader{DataLen: 2 * mem.PageSize, Addr1: pa, Len1: mem.PageSize, Frame2: uint32(pa2.Frame())}
			return append(h.appendTo(nil), bytes.Repeat([]byte{0xEE}, 2*mem.PageSize)...)
		}()},
		// A last chunk at the export's first byte that claims 8 message
		// bytes ahead of it: the notification would name an extent that
		// starts before the export.
		{"notifying message starts before the export", func() []byte {
			h := good()
			h.Flags = flagNotify
			h.MsgOff = 8
			return append(h.appendTo(nil), 1, 2, 3, 4)
		}()},
	}
}

func TestMalformedPacketsDropped(t *testing.T) {
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		victim, _ := c.Nodes[1].NewProcess(p)
		buf, _ := victim.Malloc(2 * mem.PageSize)
		if err := victim.Export(p, 1, buf, 2*mem.PageSize, nil, false); err != nil {
			t.Fatal(err)
		}
		pa, _ := victim.AS.Translate(buf)
		pa2, _ := victim.AS.Translate(buf + mem.PageSize)

		cases := malformedPayloads(pa, pa2, mem.PhysAddr(c.Nodes[1].Phys.Size()-4))
		// Everything in SRAM behind receive staging: completion scratch,
		// then the per-process send queues, page tables and TLBs.
		lcp := c.Nodes[1].LCP
		sram := c.Nodes[1].Board.SRAM
		behind := lcp.recvOff + mem.PageSize
		sramBefore := append([]byte(nil), sram.Bytes(behind, sram.Size()-behind)...)
		before := nodeCounter(t, c.Nodes[1], "lcp_protection_violations")
		for _, cse := range cases {
			injectRaw(c, cse.payload)
		}
		p.Sleep(2 * sim.Millisecond)
		after := nodeCounter(t, c.Nodes[1], "lcp_protection_violations")
		if int(after-before) != len(cases) {
			t.Errorf("violations = %d, want %d", after-before, len(cases))
		}
		if !bytes.Equal(sram.Bytes(behind, sram.Size()-behind), sramBefore) {
			t.Error("a malformed packet wrote SRAM beyond the receive staging buffer")
		}
		if got, _ := victim.Read(buf, 2*mem.PageSize); !bytes.Equal(got, make([]byte, 2*mem.PageSize)) {
			t.Error("a malformed packet reached the victim's memory")
		}

		// The system still works afterwards.
		send, _ := c.Nodes[0].NewProcess(p)
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(mem.PageSize)
		if err := send.Write(src, []byte{0xAA}); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest, 1, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		victim.SpinByte(p, buf, 0xAA)
	})
}

func TestProcessCloseDuringTraffic(t *testing.T) {
	// Closing the receiving process while a long transfer is in flight:
	// the transfer either lands before teardown or its chunks hit cleared
	// incoming entries and drop; either way the platform survives and
	// the frames come back unpinned.
	testCluster(t, 2, func(p *simProc, c *Cluster) {
		recv, _ := c.Nodes[1].NewProcess(p)
		send, _ := c.Nodes[0].NewProcess(p)
		const size = 64 * mem.PageSize
		buf, _ := recv.Malloc(size)
		if err := recv.Export(p, 1, buf, size, nil, false); err != nil {
			t.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := send.Malloc(size)
		seq, err := send.SendMsg(p, src, dest, size, SendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Tear the importer side down mid-flight first (frees the proxy
		// pages), then the exporter.
		if err := send.WaitSend(p, seq); err != nil {
			t.Fatal(err)
		}
		if err := send.Close(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(20 * sim.Millisecond) // let the unimport reach the exporter
		if err := recv.Close(p); err != nil {
			t.Fatal(err)
		}
		// Everything except nothing should stay pinned on either node.
		for f := 0; f < c.Nodes[1].Phys.NumFrames(); f++ {
			if c.Nodes[1].Phys.Pinned(f) {
				t.Fatalf("receiver frame %d still pinned after close", f)
			}
		}
		for f := 0; f < c.Nodes[0].Phys.NumFrames(); f++ {
			if c.Nodes[0].Phys.Pinned(f) {
				t.Fatalf("sender frame %d still pinned after close", f)
			}
		}
		// New processes can start fresh.
		if _, err := c.Nodes[0].NewProcess(p); err != nil {
			t.Errorf("node unusable after teardown: %v", err)
		}
	})
}
