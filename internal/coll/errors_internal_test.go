package coll

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vmmc"
)

// TestCreditDeadlockSurfacesTyped forces a genuine credit-protocol wedge —
// both ranks push more than the credit window at each other and neither
// ever receives — and checks that the engine's generic parked-forever
// report comes back wrapped as a *CreditDeadlockError naming the stuck
// ranks, their round/step, and the channel tags.
func TestCreditDeadlockSurfacesTyped(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	cluster, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var comms []*Comm
	cluster.Go("wedge-setup", func(p *sim.Proc) {
		procs := make([]*vmmc.Process, 2)
		for i := range procs {
			if procs[i], err = cluster.Nodes[i].NewProcess(p); err != nil {
				t.Fatalf("rank %d process: %v", i, err)
			}
		}
		if comms, err = Build(p, procs, Options{}); err != nil {
			t.Fatalf("build: %v", err)
		}
		for r := range comms {
			r := r
			eng.Go(fmt.Sprintf("wedge-rank%d", r), func(rp *sim.Proc) {
				c := comms[r]
				c.step("wedge_round")
				// Three slots' worth with a two-slot window and no receiver:
				// the third chunk stalls forever awaiting a credit.
				data := make([]byte, 3*slotBytes)
				_ = c.sendPayload(rp, 1-r, data)
				t.Errorf("rank %d sendPayload returned; expected a permanent stall", r)
			})
		}
	})
	runErr := cluster.Start()
	if runErr == nil {
		t.Fatal("cluster.Start returned nil, want a credit-deadlock error")
	}
	if !errors.Is(runErr, ErrCreditDeadlock) {
		t.Fatalf("error does not match ErrCreditDeadlock: %v", runErr)
	}
	var cde *CreditDeadlockError
	if !errors.As(runErr, &cde) {
		t.Fatalf("error is not a *CreditDeadlockError: %v", runErr)
	}
	if len(cde.Stalls) != 2 {
		t.Fatalf("got %d stalls, want 2: %v", len(cde.Stalls), cde.Stalls)
	}
	seen := map[int]bool{}
	for _, s := range cde.Stalls {
		seen[s.Rank] = true
		if s.Peer != 1-s.Rank {
			t.Errorf("stall %v: peer %d, want %d", s, s.Peer, 1-s.Rank)
		}
		if s.Step != "wedge_round" || s.Round != 1 {
			t.Errorf("stall %v: round/step %d/%q, want 1/%q", s, s.Round, s.Step, "wedge_round")
		}
		if want := comms[s.Rank].g.tag(s.Peer, s.Rank); s.Tag != want {
			t.Errorf("stall %v: tag %#x, want %#x", s, s.Tag, want)
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("stalls missing a rank: %v", cde.Stalls)
	}
	// The wrapped sim report must still be reachable for callers that
	// match on the engine's error text or unwrap to it.
	if !strings.Contains(runErr.Error(), "sim: deadlock") {
		t.Errorf("wrapped error lost the sim deadlock report: %v", runErr)
	}
}
