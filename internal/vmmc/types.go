// Package vmmc implements virtual memory-mapped communication on the
// simulated Myrinet cluster — the paper's primary contribution. It
// contains every trusted and untrusted software component of §4.1:
//
//   - the VMMC basic library (Process methods: Export, Import, SendMsg, …)
//   - the VMMC LANai control program (lcp.go) that picks up send requests,
//     translates addresses, chunks and pipelines long messages, scatters
//     arriving data into pinned receive buffers and raises notifications
//   - the per-node VMMC daemon (daemon.go) matching exports and imports
//     over Ethernet and installing page-table entries
//   - the kernel-loadable driver (driver.go) providing virtual-to-physical
//     translation, page locking, software-TLB refill on interrupt, and
//     signal-based notification delivery
//
// Data transfer is real: bytes move from the sender's address space
// through SRAM staging and simulated DMA into the receiver's physical
// memory, so zero-copy semantics, protection and page-boundary scatter are
// all testable, while timing comes from the calibrated hw profile.
package vmmc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mem"
)

// ProxyAddr is an address in a sender's destination proxy space: a
// logically separate address space whose pages name imported receive
// buffer pages (§2). It is not backed by local memory; it only designates
// transfer destinations.
type ProxyAddr uint64

// Page returns the proxy page number.
func (a ProxyAddr) Page() int { return int(a >> mem.PageShift) }

// Offset returns the offset within the proxy page.
func (a ProxyAddr) Offset() int { return int(a & mem.PageMask) }

// Errors surfaced by the VMMC library.
var (
	ErrNotImported   = errors.New("vmmc: proxy address not backed by an import")
	ErrTooLong       = errors.New("vmmc: transfer exceeds 8 MB maximum")
	ErrOutOfRange    = errors.New("vmmc: transfer exceeds imported buffer")
	ErrDenied        = errors.New("vmmc: import denied by exporter restrictions")
	ErrNoSuchExport  = errors.New("vmmc: no matching export")
	ErrBadBuffer     = errors.New("vmmc: invalid buffer address or length")
	ErrProcessLimit  = errors.New("vmmc: NIC out of SRAM for another process")
	ErrNotAligned    = errors.New("vmmc: exported buffer must be page aligned")
	ErrAlreadyInUse  = errors.New("vmmc: buffer tag already exported")
	ErrImportTooBig  = errors.New("vmmc: import exceeds outgoing page table capacity")
	ErrNotExported   = errors.New("vmmc: buffer not exported")
	ErrStillImported = errors.New("vmmc: buffer has active imports")
	ErrPidExhausted  = errors.New("vmmc: node has used every pid a packet header can name")

	// ErrNodeUnreachable reports that the reliable link layer exhausted
	// its retransmit budget toward the destination: the node is crashed,
	// or the path to it is dead. Only surfaced with Options.Reliable; the
	// paper's configuration silently loses the data (§4.2).
	ErrNodeUnreachable = errors.New("vmmc: destination node unreachable")
	// ErrDaemonUnreachable reports that a remote daemon never answered an
	// import request despite timeout-driven retries over the Ethernet.
	ErrDaemonUnreachable = errors.New("vmmc: remote daemon unreachable")
	// ErrNodeDown reports an operation on a process whose node has
	// crashed (or a stale process handle from before a restart).
	ErrNodeDown = errors.New("vmmc: node is down")
	// ErrImportStale reports a send through an import whose exporter
	// restarted: the cached frame translations point into a reborn
	// physical memory where those frames may back someone else's data.
	// RevalidateImport refreshes the mapping once the exporter
	// re-exports the tag. Only raised when the self-healing layer is on
	// (Options.Heal); without it the library keeps the paper's behavior.
	ErrImportStale = errors.New("vmmc: import stale after exporter restart")
)

// wire header: route bytes are consumed by the fabric; this header leads
// every packet payload. The receiving LANai scatters the data to Addr1 and
// (when the chunk crosses a destination page boundary) the start of frame
// Frame2, computing the split lengths from DataLen and the addresses
// (§4.5).
const (
	hdrMagic = 0x56 // 'V'
	hdrSize  = 28

	maxWireID    = 1<<16 - 1 // largest node id and pid; NewCluster/NewProcess refuse more
	maxWireFrame = 1<<32 - 1 // largest frame number; NewCluster refuses more memory

	flagNotify = 1 << 0 // last chunk of a notifying message: raise a notification
)

// msgHeader is the packet header, every field at its wire width, so
// appendTo never truncates: sender identity is 16 bits of node and of pid
// at both ends, and no pid wraps at 256 processes. A second scatter piece
// always starts a page, so it travels as a frame number, and the four
// bytes that saves carry MsgOff: a notifying message's last chunk names
// the whole message's extent by itself, with no state at the receiver.
type msgHeader struct {
	Flags   uint8
	DataLen uint16       // bytes of data in this chunk, at most a page
	SrcNode uint16       // sending node
	SrcPid  uint16       // sending process
	Addr1   mem.PhysAddr // first scatter destination
	Frame2  uint32       // frame of the second scatter piece (0 = no split)
	MsgOff  uint32       // message bytes ahead of this chunk (a message is at most 8 MB)
	Len1    uint16       // bytes destined for Addr1 (rest go to Frame2)
	Seq     uint16       // low bits of the sender's request sequence (diagnostics)
}

// appendTo appends the header's wire form to b.
func (h *msgHeader) appendTo(b []byte) []byte {
	b = append(b, hdrMagic, h.Flags)
	b = binary.BigEndian.AppendUint16(b, h.DataLen)
	b = binary.BigEndian.AppendUint16(b, h.SrcNode)
	b = binary.BigEndian.AppendUint16(b, h.SrcPid)
	b = binary.BigEndian.AppendUint64(b, uint64(h.Addr1))
	b = binary.BigEndian.AppendUint32(b, h.Frame2)
	b = binary.BigEndian.AppendUint32(b, h.MsgOff)
	b = binary.BigEndian.AppendUint16(b, h.Len1)
	return binary.BigEndian.AppendUint16(b, h.Seq)
}

func decodeHeader(b []byte) (msgHeader, error) {
	if len(b) < hdrSize || b[0] != hdrMagic {
		return msgHeader{}, fmt.Errorf("vmmc: malformed packet header")
	}
	return msgHeader{
		Flags:   b[1],
		DataLen: binary.BigEndian.Uint16(b[2:]),
		SrcNode: binary.BigEndian.Uint16(b[4:]),
		SrcPid:  binary.BigEndian.Uint16(b[6:]),
		Addr1:   mem.PhysAddr(binary.BigEndian.Uint64(b[8:])),
		Frame2:  binary.BigEndian.Uint32(b[16:]),
		MsgOff:  binary.BigEndian.Uint32(b[20:]),
		Len1:    binary.BigEndian.Uint16(b[24:]),
		Seq:     binary.BigEndian.Uint16(b[26:]),
	}, nil
}
