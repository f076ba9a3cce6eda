package tenant

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// run boots an n-node reliable cluster, builds a manager, and runs fn as
// the workload.
func run(t *testing.T, n int, fn func(p *sim.Proc, c *vmmc.Cluster, m *Manager)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	c, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: n, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(c)
	c.Go("workload", func(p *sim.Proc) { fn(p, c, m) })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitPlaceEvictChurn(t *testing.T) {
	run(t, 4, func(p *sim.Proc, c *vmmc.Cluster, m *Manager) {
		if _, err := m.Admit(p, Spec{Name: "nowhere"}); !errors.Is(err, ErrPlacement) {
			t.Fatalf("admit with no nodes = %v, want ErrPlacement", err)
		}
		if _, err := m.Admit(p, Spec{Name: "far", Nodes: []int{4}}); !errors.Is(err, ErrPlacement) {
			t.Fatalf("admit on node 4 of 4 = %v, want ErrPlacement", err)
		}
		a, err := m.Admit(p, Spec{Name: "a", Nodes: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Nodes; len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("tenant a placed on %v, want [0 1]", got)
		}
		b, err := m.Admit(p, Spec{Name: "b", Nodes: []int{2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		if a.Class == b.Class || a.Class == 0 {
			t.Fatalf("classes not distinct and non-zero: a=%d b=%d", a.Class, b.Class)
		}
		if _, err := m.Admit(p, Spec{Name: "a", Nodes: []int{2}}); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("duplicate admit = %v, want ErrDuplicate", err)
		}

		if err := m.Kill("a"); err != nil {
			t.Fatal(err)
		}
		if a.State() != Killed {
			t.Fatalf("a state = %v", a.State())
		}
		if err := m.Kill("a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double kill = %v, want ErrNotFound", err)
		}
		// Churn: a departed tenant's nodes take a new tenant, and its name
		// is NOT reusable while recorded — a fresh name lands on the freed
		// nodes with a fresh class.
		a2, err := m.Admit(p, Spec{Name: "a2", Nodes: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if a2.Class <= b.Class {
			t.Fatalf("class reused: a2=%d after b=%d", a2.Class, b.Class)
		}
		for name, want := range map[string]State{"a": Killed, "a2": Admitted, "b": Admitted} {
			if got := m.tenants[name].State(); got != want {
				t.Fatalf("tenant %s is %v, want %v", name, got, want)
			}
		}
	})
}

func TestAdmissionRollbackLeaksNothing(t *testing.T) {
	run(t, 2, func(p *sim.Proc, c *vmmc.Cluster, m *Manager) {
		// A TLB partition far beyond board SRAM must fail typed, and the
		// failed multi-node admission must roll back the process it had
		// already created on node 0.
		_, err := m.Admit(p, Spec{Name: "hog", Nodes: []int{0, 1},
			Limits: vmmc.ProcLimits{TLBEntries: 1 << 22}})
		if !errors.Is(err, vmmc.ErrProcessLimit) {
			t.Fatalf("admit = %v, want ErrProcessLimit", err)
		}
		if m.mRejected.Value() != 1 {
			t.Fatalf("rejected counter = %d", m.mRejected.Value())
		}
		// The rollback freed everything: a full-size tenant still fits on
		// both nodes.
		if _, err := m.Admit(p, Spec{Name: "ok", Nodes: []int{0, 1}}); err != nil {
			t.Fatalf("admit after rollback: %v", err)
		}
	})
}

// victimTransfer is tenant B's workload: msgs sequential 2-page sends
// from its node-0 process into its node-1 process's export, returning
// the receiver's final buffer contents.
func victimTransfer(t *testing.T, p *sim.Proc, v *Tenant, msgs int, midpoint func()) []byte {
	t.Helper()
	const msgBytes = 2 * mem.PageSize
	recv, send := v.Procs[1], v.Procs[0]
	buf, err := recv.Malloc(msgs * msgBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Export(p, 42, buf, msgs*msgBytes, nil, false); err != nil {
		t.Fatal(err)
	}
	dest, _, err := send.Import(p, recv.Node.ID, 42)
	if err != nil {
		t.Fatal(err)
	}
	src, err := send.Malloc(msgBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		msg := make([]byte, msgBytes)
		for j := range msg {
			msg[j] = byte(i*31 + j*7 + 5)
		}
		if err := send.Write(src, msg); err != nil {
			t.Fatal(err)
		}
		if err := send.SendMsgSync(p, src, dest+vmmc.ProxyAddr(i*msgBytes), msgBytes, vmmc.SendOptions{}); err != nil {
			t.Fatalf("victim send %d: %v", i, err)
		}
		last := msg[msgBytes-1]
		recv.SpinUntil(p, func() bool {
			got, err := recv.Read(buf+mem.VirtAddr((i+1)*msgBytes-1), 1)
			return err == nil && got[0] == last
		})
		if i == msgs/2 && midpoint != nil {
			midpoint()
		}
	}
	got, err := recv.Read(buf, msgs*msgBytes)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCrashContainment is the blast-radius acceptance test: killing a
// co-resident bulk tenant mid-transfer must leave the victim tenant's
// received bytes identical to a solo run, with zero victim-side errors.
func TestCrashContainment(t *testing.T) {
	const msgs = 8

	// Solo run: the victim alone on the cluster.
	var solo []byte
	run(t, 2, func(p *sim.Proc, c *vmmc.Cluster, m *Manager) {
		small := vmmc.ProcLimits{SendQueueEntries: 8, TLBEntries: 256}
		v, err := m.Admit(p, Spec{Name: "victim", Nodes: []int{0, 1}, Limits: small})
		if err != nil {
			t.Fatal(err)
		}
		solo = victimTransfer(t, p, v, msgs, nil)
	})

	// Co-resident run: a bulk tenant hammers the same link with 128 KB
	// sends and is killed when the victim is halfway through.
	var shared []byte
	run(t, 2, func(p *sim.Proc, c *vmmc.Cluster, m *Manager) {
		// Co-residency requires partitioning: two full-size (2048-entry)
		// TLBs do not fit one board's SRAM, which is exactly the budget
		// the limits carve up.
		small := vmmc.ProcLimits{SendQueueEntries: 8, TLBEntries: 256}
		bulk, err := m.Admit(p, Spec{Name: "bulk", Nodes: []int{0, 1}, Limits: small})
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Admit(p, Spec{Name: "victim", Nodes: []int{0, 1}, Limits: small})
		if err != nil {
			t.Fatal(err)
		}

		// Bulk workload: an endless stream of 128 KB transfers. The
		// worker is registered so Kill unwinds it; otherwise it would
		// spin forever on a status page that no longer updates.
		const bulkBytes = 128 << 10
		bsend, brecv := bulk.Procs[0], bulk.Procs[1]
		bbuf, _ := brecv.Malloc(bulkBytes)
		if err := brecv.Export(p, 7, bbuf, bulkBytes, nil, false); err != nil {
			t.Fatal(err)
		}
		bdest, _, err := bsend.Import(p, brecv.Node.ID, 7)
		if err != nil {
			t.Fatal(err)
		}
		bsrc, _ := bsend.Malloc(bulkBytes)
		w := c.Eng.Go("bulk-worker", func(wp *sim.Proc) {
			for {
				if err := bsend.SendMsgSync(wp, bsrc, bdest, bulkBytes, vmmc.SendOptions{}); err != nil {
					return // killed mid-send, or torn down
				}
			}
		})
		bulk.AddWorker(w)

		shared = victimTransfer(t, p, v, msgs, func() {
			if err := m.Kill("bulk"); err != nil {
				t.Fatal(err)
			}
		})

		verrs := v.Procs[0].Errors()
		rerrs := v.Procs[1].Errors()
		if verrs.SendFailures != 0 || verrs.ImportFailures != 0 ||
			rerrs.SendFailures != 0 || rerrs.ImportFailures != 0 {
			t.Fatalf("victim saw errors: send %+v recv %+v", verrs, rerrs)
		}
		if bulk.State() != Killed {
			t.Fatalf("bulk state = %v", bulk.State())
		}
		// The killed tenant's pins are gone; the victim still holds its
		// own state and can keep using the nodes.
		for i, proc := range bulk.Procs {
			if !proc.Dead() {
				t.Fatalf("bulk proc %d not dead after kill", i)
			}
		}
		if m.mKilled.Value() != 1 {
			t.Fatalf("killed counter = %d", m.mKilled.Value())
		}
	})

	if !bytes.Equal(solo, shared) {
		for i := range solo {
			if solo[i] != shared[i] {
				t.Fatalf("victim bytes diverge from solo run at offset %d of %d", i, len(solo))
			}
		}
	}
}

// TestKillFreesResources verifies the contained teardown actually
// returns the budgets: after killing tenants, the freed SRAM admits new
// tenants on the same nodes.
func TestKillFreesResources(t *testing.T) {
	run(t, 2, func(p *sim.Proc, c *vmmc.Cluster, m *Manager) {
		for round := 0; round < 3; round++ {
			names := []string{"x", "y", "z"}
			for k, name := range names {
				name := name + string(rune('0'+round))
				tn, err := m.Admit(p, Spec{Name: name, Nodes: []int{0, 1},
					Limits: vmmc.ProcLimits{SendQueueEntries: 8, TLBEntries: 128}})
				if err != nil {
					t.Fatalf("round %d admit %s: %v", round, name, err)
				}
				// Touch the interface so there is real state to tear
				// down. Export tags are a node-global namespace, so each
				// tenant gets its own.
				tag := uint32(100 + k)
				buf, _ := tn.Procs[1].Malloc(mem.PageSize)
				if err := tn.Procs[1].Export(p, tag, buf, mem.PageSize, nil, false); err != nil {
					t.Fatal(err)
				}
				if _, _, err := tn.Procs[0].Import(p, 1, tag); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range names {
				if err := m.Kill(name + string(rune('0'+round))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.mKilled.Value() != 9 {
			t.Fatalf("killed counter = %d, want 9", m.mKilled.Value())
		}
	})
}
