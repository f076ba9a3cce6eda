// Package vmmcnet is the public interface to the VMMC-on-Myrinet
// reproduction: virtual memory-mapped communication (Dubnicki, Bilas, Li,
// Philbin — IPPS 1997) on a simulated cluster of PCI PCs with Myrinet
// interfaces.
//
// The programming model is the paper's: a receiving process Exports
// regions of its virtual address space as receive buffers; a sender
// Imports them into its destination proxy space and transfers data with
// SendMsg — directly from its virtual memory into the receiver's, with no
// receive operation, no receiver-CPU involvement, and full protection.
// Notifications optionally transfer control by invoking a user-level
// handler after a message lands.
//
// Everything runs inside a deterministic discrete-event simulation: build
// a Cluster, spawn workload processes with Cluster.Go, and call
// Cluster.Start to run the simulation to completion. Time inside the
// workload is virtual; the timing model is calibrated so the paper's
// measured results reproduce (9.8 us one-way latency, 80.4 MB/s
// user-to-user bandwidth; see EXPERIMENTS.md).
//
// A minimal round trip:
//
//	eng := vmmcnet.NewEngine()
//	c, _ := vmmcnet.NewCluster(eng, vmmcnet.Options{Nodes: 2})
//	c.Go("app", func(p *vmmcnet.Proc) {
//	    recv, _ := c.Nodes[1].NewProcess(p)
//	    send, _ := c.Nodes[0].NewProcess(p)
//	    buf, _ := recv.Malloc(4096)
//	    recv.Export(p, 1, buf, 4096, nil, false)
//	    dest, _, _ := send.Import(p, 1, 1)
//	    src, _ := send.Malloc(4096)
//	    send.Write(src, []byte("hello"))
//	    send.SendMsgSync(p, src, dest, 5, vmmcnet.SendOptions{})
//	    recv.SpinByte(p, buf, 'h') // data appears in recv's memory
//	})
//	c.Start()
//
// # Observability
//
// The engine owns a trace collector and a metrics registry
// (internal/trace, re-exported here as TraceCollector, TraceEvent,
// Metrics, and MetricsSnapshot). Counters — DMA utilization, SRAM
// high-water marks, TLB hits and misses, per-link bytes — are always on;
// arm Engine.Trace() with TraceCollector.Enable before Start to also
// record spans and instants of everything the simulated hardware does.
// Both export as deterministic JSON (trace.WriteChromeTrace,
// MetricsSnapshot.WriteJSON): timestamps are virtual, so identical runs
// produce byte-identical artifacts. See docs/OBSERVABILITY.md and the
// -trace/-metrics flags of cmd/vmmcbench.
package vmmcnet

import (
	"io"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// Core types, re-exported from the implementation packages.
type (
	// Engine is the discrete-event simulation engine everything runs on.
	Engine = sim.Engine
	// Proc is a simulation process; all communication calls take the
	// calling process so their costs are charged to it.
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time

	// Cluster is a simulated network of PCs with Myrinet interfaces.
	Cluster = vmmc.Cluster
	// Options configure a cluster.
	Options = vmmc.Options
	// Process is a user process linked with the VMMC basic library.
	Process = vmmc.Process
	// ProxyAddr is an address in a sender's destination proxy space.
	ProxyAddr = vmmc.ProxyAddr
	// SendOptions modify a send (notifications).
	SendOptions = vmmc.SendOptions
	// ProcID names a process cluster-wide, for export restrictions.
	ProcID = vmmc.ProcID
	// NotifyHandler is a user-level notification handler; it runs to
	// completion in the signal's event, in arrival order, and never blocks.
	NotifyHandler = vmmc.NotifyHandler

	// VirtAddr is a process virtual address.
	VirtAddr = mem.VirtAddr
	// Profile holds the platform timing constants.
	Profile = hw.Profile

	// TraceCollector buffers structured trace events; obtain the engine's
	// with Engine.Trace() and arm it with Enable.
	TraceCollector = trace.Collector
	// TraceEvent is one trace record: virtual timestamp, phase
	// (span begin/end, instant, counter sample), component, category,
	// name, and value.
	TraceEvent = trace.Event
	// Metrics is the registry of named counters, gauges, and
	// utilizations; obtain the engine's with Engine.Metrics().
	Metrics = trace.Registry
	// MetricsSnapshot is a point-in-time, name-sorted copy of every
	// metric; obtain one with Engine.MetricsSnapshot() and serialize it
	// with WriteJSON.
	MetricsSnapshot = trace.Snapshot
)

// WriteChromeTrace writes trace events in the Chrome trace_event JSON
// format, loadable in chrome://tracing and Perfetto. Pass
// Engine.Trace().Events() and Engine.Trace().Dropped().
func WriteChromeTrace(w io.Writer, events []TraceEvent, dropped int64) error {
	return trace.WriteChromeTrace(w, events, dropped)
}

// PageSize is the platform page size (4 KB).
const PageSize = mem.PageSize

// Durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Errors surfaced by the library.
var (
	ErrNotImported  = vmmc.ErrNotImported
	ErrTooLong      = vmmc.ErrTooLong
	ErrOutOfRange   = vmmc.ErrOutOfRange
	ErrDenied       = vmmc.ErrDenied
	ErrNoSuchExport = vmmc.ErrNoSuchExport
	ErrBadBuffer    = vmmc.ErrBadBuffer
	ErrProcessLimit = vmmc.ErrProcessLimit
	ErrNotAligned   = vmmc.ErrNotAligned
)

// NewEngine returns a fresh simulation engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewCluster builds the simulated hardware: nodes, Myrinet fabric,
// Ethernet side channel. Boot (network mapping, daemons, LANai control
// programs) happens when the cluster starts.
func NewCluster(eng *Engine, opts Options) (*Cluster, error) {
	return vmmc.NewCluster(eng, opts)
}

// DefaultProfile returns the calibrated platform timing profile; modify a
// copy and pass it through Options.Prof for what-if experiments.
func DefaultProfile() Profile { return hw.Default() }

// Micros converts microseconds to a Time.
func Micros(us float64) Time { return sim.Micros(us) }

// ClusterStats is a point-in-time read of the per-node counters the
// benchmark module reports (LCPs, drivers, boards, fabric), out of the
// engine's metrics registry; obtain one with Cluster.Stats().
type ClusterStats = vmmc.ClusterStats
