package vmmc

import (
	"fmt"

	"repro/internal/mem"
)

// Transfer redirection — the flagship future-work feature of this
// research line (VMMC-2). The paper's model requires the sender to name
// the final destination, which forces libraries that cannot know the
// receiver's buffer in advance (like SunRPC, §5.4) to receive into a
// default buffer and copy. Redirection removes that copy: the receiver
// may post, at any time, that data addressed to an exported default
// buffer should be deposited into a different user buffer instead. Data
// that arrived before the posting is copied once; everything after lands
// directly — late postings degrade gracefully instead of forcing a copy
// of the whole message.
//
// Restrictions in this implementation (documented, matching the common
// use): the redirect target must be page aligned so the arriving chunks'
// scatter layout is preserved, and the early-arrival extent is tracked as
// a high-water mark, which is exact for the sequential deposits message
// libraries perform.

// redirectRec is the receiver-side LCP state for one active redirection.
type redirectRec struct {
	tag    uint32
	pid    int
	userVA mem.VirtAddr
	frames []int // pinned frames of the user buffer
	length int
	// redirected counts bytes deposited directly into the user buffer.
	redirected int64
}

// PostRedirect asks the interface to deposit future arrivals for the
// export tagged tag into [va, va+n) instead of the exported default
// buffer. It returns the number of bytes that had already arrived (the
// prefix it copied into the user buffer). The caller must own the export;
// va must be page aligned; n must not exceed the export's length.
func (proc *Process) PostRedirect(p *simProc, tag uint32, va mem.VirtAddr, n int) (int, error) {
	info, ok := proc.export(tag)
	if !ok {
		return 0, ErrNotExported
	}
	if va.Offset() != 0 {
		return 0, ErrNotAligned
	}
	if n <= 0 || n > info.length || !proc.AS.Mapped(va, n) {
		return 0, ErrBadBuffer
	}
	lcp := proc.Node.LCP
	if _, dup := lcp.redirects[tag]; dup {
		return 0, fmt.Errorf("vmmc: redirect already posted for tag %d", tag)
	}

	// Lock the user buffer and install the redirection (driver call plus
	// MMIO writes to the interface).
	frames, err := proc.Node.Driver.translateAndLock(proc, va, n)
	if err != nil {
		return 0, err
	}
	p.Sleep(proc.Node.Prof.InterruptCost)
	proc.Node.CPU.MMIOWriteWords(p, 4+len(frames))

	rd := &redirectRec{tag: tag, pid: proc.Pid, userVA: va, frames: frames, length: n}
	lcp.redirects[tag] = rd

	// Copy whatever already landed in the default buffer (the one copy a
	// late posting cannot avoid).
	early := lcp.arrivedHW[tag]
	if early > n {
		early = n
	}
	if early > 0 {
		data, err := proc.Read(info.baseVA, early)
		if err != nil {
			return 0, err
		}
		proc.Node.CPU.Bcopy(p, early)
		if err := proc.Write(va, data); err != nil {
			return 0, err
		}
	}
	return early, nil
}

// CompleteRedirect withdraws the redirection: subsequent arrivals deposit
// into the default buffer again, and the user buffer is unlocked. It
// returns how many bytes were deposited directly (copy-free) while the
// redirection was active.
func (proc *Process) CompleteRedirect(p *simProc, tag uint32) (int64, error) {
	lcp := proc.Node.LCP
	rd, ok := lcp.redirects[tag]
	if !ok || rd.pid != proc.Pid {
		return 0, fmt.Errorf("vmmc: no redirect posted for tag %d", tag)
	}
	p.Sleep(daemonIPCCost / 3) // interface update
	proc.Node.CPU.MMIOWriteWords(p, 2)
	delete(lcp.redirects, tag)
	proc.Node.Driver.unlock(proc.lcpState, rd.frames)
	return rd.redirected, nil
}

// redirectPieces rewrites a scatter piece targeted at the default buffer
// into the redirect target, preserving the intra-page layout (both buffers
// are page aligned). It returns false when the piece falls outside the
// redirect window, in which case it deposits to the default buffer.
func (l *LCP) redirectPiece(entry inEntry, rd *redirectRec, pa mem.PhysAddr, n int) (mem.PhysAddr, bool) {
	off := entry.exportOff(pa)
	if off < 0 || off+n > rd.length {
		return 0, false
	}
	page := off / mem.PageSize
	// A piece never crosses a page boundary (chunks are split at the
	// destination page boundary by the sender's scatter header).
	return mem.PhysAddr(rd.frames[page])<<mem.PageShift | mem.PhysAddr(off&mem.PageMask), true
}
