// Package tenant is the multi-tenant control plane over a VMMC cluster:
// it admits, places and kills tenants — each a set of user processes
// spread across nodes — under explicit partitions of the interface's
// contended budgets, and contains the blast radius of a tenant crash to
// that tenant's own state.
//
// The underlying mechanisms live one layer down and are all opt-in:
//
//   - partitions: vmmc.ProcLimits carves the SRAM send queue and the
//     software TLB per process at admission time, with a typed
//     over-budget error (vmmc.ErrProcessLimit) instead of silent
//     starvation;
//   - link QoS: each tenant rides its own reliable-link traffic class,
//     and lanai.Board.ConfigureLinkClass gives the class a token-bucket
//     bandwidth budget so bulk tenants cannot monopolize link injection;
//     on a board with a budget, the LCP serves a latency-sensitive
//     tenant's small sends between the chunks of a bulk tenant's
//     in-progress long transfer;
//   - containment: Kill tears down exactly one tenant — its processes'
//     SRAM carves, page pins, exports/imports and reliable-link windows
//     (its class's, never the shared class 0) — as pure state
//     manipulation, leaving co-resident tenants' in-flight transfers
//     byte-identical to a run where the victim never existed.
//
// The manager emits per-tenant attribution: "tenant/*" registry counters
// and category-"tenant" trace events (lifecycle instants plus usage
// counters) that internal/analysis folds into its report.
package tenant

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmmc"
)

// Typed admission errors.
var (
	// ErrDuplicate rejects admitting a tenant name that is already active.
	ErrDuplicate = errors.New("tenant: name already admitted")
	// ErrPlacement rejects a spec naming no usable nodes.
	ErrPlacement = errors.New("tenant: no nodes to place on")
	// ErrNotFound reports an unknown or already-departed tenant.
	ErrNotFound = errors.New("tenant: no such tenant")
)

// Spec describes one tenant to admit.
type Spec struct {
	// Name identifies the tenant; it must be unique among active tenants.
	Name string
	// Nodes places the tenant on explicit node IDs, one process per
	// entry.
	Nodes []int
	// Limits partitions the interface budgets for each of the tenant's
	// processes. The Class field is ignored: the manager assigns every
	// tenant a fresh link traffic class.
	Limits vmmc.ProcLimits
	// LinkBytesPerSec, when positive and QoS is enabled, bounds the
	// tenant's injection bandwidth on every node it lands on, with a
	// token-bucket depth of linkBurstBytes.
	LinkBytesPerSec float64
}

// linkBurstBytes is the token-bucket depth of a tenant's bandwidth budget.
const linkBurstBytes = 16 << 10

// State is a tenant's lifecycle state.
type State int

// Lifecycle states.
const (
	Admitted State = iota // placed and running
	Killed                // crashed or forcibly removed; blast radius contained
)

func (s State) String() string {
	switch s {
	case Admitted:
		return "admitted"
	case Killed:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Tenant is one admitted tenant: a named set of processes, one per node
// in Nodes, all sharing a private link traffic class.
type Tenant struct {
	Name string
	// Class is the tenant's private reliable-link traffic class.
	Class int
	// Nodes lists the node IDs the tenant was placed on, and Procs the
	// process on each (aligned by index). After Kill the handles are
	// stale.
	Nodes []int
	Procs []*vmmc.Process

	spec    Spec
	state   State
	workers []*sim.Proc
}

// State returns the tenant's lifecycle state.
func (t *Tenant) State() State { return t.state }

// AddWorker registers a workload simulation process with the tenant so
// Kill can unwind it. Workload procs parked on a killed tenant's
// completion words would otherwise spin forever.
func (t *Tenant) AddWorker(p *sim.Proc) { t.workers = append(t.workers, p) }

// comp is the tenant's trace component name.
func (t *Tenant) comp() string { return "tenant/" + t.Name }

// Manager admits, places and kills tenants on one cluster. All methods run
// on the simulation goroutine; admission charges virtual time to the
// calling process, Kill is instantaneous (it models the OS reclaiming a
// dead process).
type Manager struct {
	Cluster *vmmc.Cluster

	qos       bool
	nextClass int
	tenants   map[string]*Tenant

	mAdmitted, mRejected, mKilled *trace.Counter
}

// NewManager returns a manager over a booted or booting cluster.
func NewManager(c *vmmc.Cluster) *Manager {
	m := c.Eng.Metrics()
	return &Manager{
		Cluster:   c,
		nextClass: 1, // class 0 is the shared non-tenant default
		tenants:   make(map[string]*Tenant),
		mAdmitted: m.Counter("tenant/admitted"),
		mRejected: m.Counter("tenant/rejected"),
		mKilled:   m.Counter("tenant/killed"),
	}
}

// SetQoS toggles the isolation machinery cluster-wide: per-tenant link
// bandwidth budgets for tenants that declare a rate. A board with a
// budget paces its traffic, and its LCP then serves other processes'
// short sends between a long send's chunks. Budgets are enforced by
// pacer-aware scheduling: a tenant's class in pacing deficit is treated
// as not-ready and skipped — the LCP keeps serving other tenants' shorts
// and parks only when every runnable class is deficient — so one tenant
// overdrawing its budget never sleeps the shared control program. Each
// LCP still runs one long send at a time, so another tenant's long send
// waits for a deficient one to finish. Off (the default) reproduces the
// legacy first-come-first-served behavior exactly.
func (m *Manager) SetQoS(on bool) {
	m.qos = on
	for _, t := range m.tenants {
		if t.state == Admitted {
			m.configureLink(t, on)
		}
	}
}

// configureLink installs (on) or removes (off) the tenant's bandwidth
// budget on every node it occupies.
func (m *Manager) configureLink(t *Tenant, on bool) {
	if t.spec.LinkBytesPerSec <= 0 {
		return
	}
	for _, id := range t.Nodes {
		board := m.Cluster.Nodes[id].Board
		if on {
			board.ConfigureLinkClass(t.Class, t.spec.LinkBytesPerSec, linkBurstBytes)
		} else {
			board.ConfigureLinkClass(t.Class, 0, 0)
		}
	}
}

// place resolves a spec to node IDs: its explicit Nodes, verbatim.
func (m *Manager) place(spec Spec) ([]int, error) {
	if len(spec.Nodes) == 0 {
		return nil, fmt.Errorf("%w: spec names no nodes", ErrPlacement)
	}
	for _, id := range spec.Nodes {
		if id < 0 || id >= len(m.Cluster.Nodes) {
			return nil, fmt.Errorf("%w: node %d out of range", ErrPlacement, id)
		}
	}
	return append([]int(nil), spec.Nodes...), nil
}

// Admit places and registers a tenant. On any failure every process
// created so far is closed again, so a rejected admission leaks nothing;
// the error wraps the underlying typed budget error
// (vmmc.ErrProcessLimit, ...).
func (m *Manager) Admit(p *sim.Proc, spec Spec) (*Tenant, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrPlacement)
	}
	if _, dup := m.tenants[spec.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, spec.Name)
	}
	nodes, err := m.place(spec)
	if err != nil {
		m.mRejected.Add(1)
		return nil, err
	}
	t := &Tenant{Name: spec.Name, Class: m.nextClass, Nodes: nodes, spec: spec}
	limits := spec.Limits
	limits.Class = t.Class
	for _, id := range nodes {
		proc, err := m.Cluster.Nodes[id].NewProcessWith(p, limits)
		if err != nil {
			for _, created := range t.Procs {
				_ = created.Close(p)
			}
			m.mRejected.Add(1)
			m.Cluster.Eng.TraceInstant(t.comp(), "tenant", "rejected")
			return nil, fmt.Errorf("tenant %q: admit on node %d: %w", spec.Name, id, err)
		}
		t.Procs = append(t.Procs, proc)
	}
	m.nextClass++ // burn the class only on success; ids are never reused
	m.tenants[spec.Name] = t
	if m.qos {
		m.configureLink(t, true)
	}
	m.mAdmitted.Add(1)
	m.Cluster.Eng.TraceInstant(t.comp(), "tenant", "admitted")
	return t, nil
}

// Kill models the tenant crashing or being forcibly removed: usage is
// snapshotted, every registered worker is unwound, and each process is
// torn down with vmmc.KillProcess — the scoped, kill-safe path whose
// blast radius is exactly the tenant's own windows, pins and SRAM.
// No virtual time passes.
func (m *Manager) Kill(name string) error {
	t, ok := m.tenants[name]
	if !ok || t.state != Admitted {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	m.EmitUsage(t)
	for _, w := range t.workers {
		w.Kill()
	}
	for i, proc := range t.Procs {
		m.Cluster.Nodes[t.Nodes[i]].KillProcess(proc.Pid)
	}
	m.configureLink(t, false)
	t.state = Killed
	m.mKilled.Add(1)
	m.Cluster.Eng.TraceInstant(t.comp(), "tenant", "killed")
	return nil
}

// EmitUsage publishes the tenant's current resource attribution as
// category-"tenant" trace counters on the tenant's component: pinned
// frames and library-level failures summed over its processes, and the
// link pacer's per-class throttle totals over its nodes. The analysis
// layer folds the last sample of each counter into its report. Called
// automatically at Kill; experiments may also call it at sampling points.
func (m *Manager) EmitUsage(t *Tenant) {
	eng := m.Cluster.Eng
	var pins int
	var sendFail, importFail int64
	for _, proc := range t.Procs {
		if !proc.Dead() {
			pins += proc.PinnedFrames()
		}
		errs := proc.Errors()
		sendFail += errs.SendFailures
		importFail += errs.ImportFailures
	}
	var throttles int64
	var throttledNS sim.Time
	for _, id := range t.Nodes {
		if ls := m.Cluster.Nodes[id].Board.LinkScheduler(); ls != nil {
			n, d := ls.ClassStats(t.Class)
			throttles += n
			throttledNS += d
		}
	}
	comp := t.comp()
	eng.TraceCounter(comp, "tenant", "pinned_frames", float64(pins))
	eng.TraceCounter(comp, "tenant", "send_failures", float64(sendFail))
	eng.TraceCounter(comp, "tenant", "import_failures", float64(importFail))
	eng.TraceCounter(comp, "tenant", "link_throttles", float64(throttles))
	eng.TraceCounter(comp, "tenant", "link_throttled_ns", float64(throttledNS))
}
