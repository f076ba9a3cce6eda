package vmmc

import (
	"repro/internal/mem"
	"repro/internal/myrinet"
)

// handleRecv processes one arrived packet: drain it into SRAM staging,
// verify the CRC (errors are detected and counted, never recovered —
// §4.2), validate every scatter piece against the incoming page table, and
// DMA the data directly into the pinned receive buffer without involving
// the receiving host CPU (§2: "there is no explicit receive operation in
// VMMC"). The last chunk of a notifying message raises a host interrupt
// for signal delivery.
// The packet has already been drained into SRAM by the receive engine and
// filtered through the optional link layer.
func (l *LCP) handleRecv(p *simProc, item rxItem) {
	board := l.node.Board
	eng := l.node.Eng
	pk := item.pk
	eng.TraceBegin(l.comp, "lcp", "recv_packet")
	defer eng.TraceEnd(l.comp, "lcp", "recv_packet")
	p.Sleep(l.node.Prof.LCPRecvPacket)
	l.m.packetsIn.Add(1)

	if !pk.CheckCRC() {
		l.m.crcErrors.Add(1)
		eng.TraceInstant(l.comp, "lcp", "crc_error")
		board.NIC.Release(pk)
		return
	}
	if len(item.data) < hdrSize {
		l.protViolation(pk)
		return
	}
	hdr, err := decodeHeader(item.data)
	if err != nil {
		l.protViolation(pk)
		return
	}
	data := item.data[hdrSize:]
	// A chunk never exceeds a page (§4.5), and a page is all the receive
	// staging buffer holds: a longer packet that named adjacent exported
	// frames would pass every check below and overrun staging into the
	// neighbouring SRAM state.
	if int(hdr.DataLen) != len(data) || hdr.DataLen == 0 || hdr.DataLen > mem.PageSize {
		l.protViolation(pk)
		return
	}

	len1 := int(hdr.Len1)
	len2 := 0
	addr2 := mem.PhysAddr(hdr.Frame2) << mem.PageShift
	if hdr.Frame2 != 0 {
		// Scatter lengths are computed from the total length and the
		// addresses (§4.5).
		len2 = int(hdr.DataLen) - len1
	} else {
		len1 = int(hdr.DataLen)
	}
	if len1 <= 0 || len1 > len(data) || len2 < 0 {
		l.protViolation(pk)
		return
	}

	// Protection: every touched frame must be writable by incoming
	// messages and the range must stay inside the exported extent.
	if err := l.incoming.check(hdr.Addr1, len1); err != nil {
		l.protViolation(pk)
		return
	}
	if len2 > 0 {
		if err := l.incoming.check(addr2, len2); err != nil {
			l.protViolation(pk)
			return
		}
	}
	// The chunk's offset within its export; a notifying chunk's message
	// starts MsgOff bytes before it, which must not be before the export.
	entry, _ := l.incoming.lookup(hdr.Addr1)
	chunkOff := entry.exportOff(hdr.Addr1)
	notify := hdr.Flags&flagNotify != 0
	if notify && int(hdr.MsgOff) > chunkOff {
		l.protViolation(pk)
		return
	}

	// Resolve transfer redirection (redirect.go): pieces aimed at a
	// default buffer with an active redirect deposit into the posted
	// user buffer instead, copy-free.
	dst1, dst2 := hdr.Addr1, addr2
	if rd, active := l.redirects[entry.tag]; active {
		if pa, ok := l.redirectPiece(entry, rd, hdr.Addr1, len1); ok {
			dst1 = pa
			rd.redirected += int64(len1)
		}
		if len2 > 0 {
			if e2, ok := l.incoming.lookup(addr2); ok {
				if pa, ok := l.redirectPiece(e2, rd, addr2, len2); ok {
					dst2 = pa
					rd.redirected += int64(len2)
				}
			}
		}
	}
	// Track the arrival high-water mark within the export, for the
	// early-arrival copy of a late redirect posting.
	if endOff := chunkOff + int(hdr.DataLen); endOff > l.arrivedHW[entry.tag] {
		l.arrivedHW[entry.tag] = endOff
	}

	// Deposit piece one, then piece two, with the host DMA engine.
	staging := board.SRAM.Bytes(l.recvOff, len(data))
	copy(staging, data)
	// The packet now lives in SRAM staging; its buffer can carry another.
	board.NIC.Release(pk)
	if err := board.SRAMToHost(p, l.recvOff, dst1, len1); err != nil {
		panic(err) // frames were pinned at export or redirect post
	}
	if len2 > 0 {
		if err := board.SRAMToHost(p, l.recvOff+len1, dst2, len2); err != nil {
			panic(err)
		}
	}
	l.m.bytesIn.Add(int64(hdr.DataLen))
	l.node.MemActivity.Broadcast()

	// The last chunk of a notifying message names the whole message: it
	// began MsgOff bytes before this chunk and ends with it. A message
	// whose last chunk the paper's link lost (§4.2) raises nothing, and
	// the next one reports only its own extent. The export is looked up
	// again: it may have been dropped during the deposit.
	if entry, ok := l.incoming.lookup(hdr.Addr1); notify && ok && entry.notifyOK {
		l.node.Driver.notify(entry.owner, entry.tag,
			entry.exportOff(hdr.Addr1)-int(hdr.MsgOff), int(hdr.MsgOff)+int(hdr.DataLen),
			ProcID{Node: int(hdr.SrcNode), Pid: int(hdr.SrcPid)})
	}
}

// protViolation counts a rejected packet (forged, malformed, or outside
// the exported extent) in metrics and the trace, and releases it.
func (l *LCP) protViolation(pk *myrinet.Packet) {
	l.m.protViol.Add(1)
	l.node.Eng.TraceInstant(l.comp, "lcp", "protection_violation")
	l.node.Board.NIC.Release(pk)
}
