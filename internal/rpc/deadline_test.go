package rpc

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// procSlow holds the server busy for a fixed service time — the
// occupier used to build deterministic queueing delay behind one call.
const procSlow = 3

func registerSlowProc(srv *Server, service sim.Time) {
	srv.Register(progTest, versTest, procSlow, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		p.Sleep(service)
		return xdr.AcceptSuccess
	})
}

// TestVRPCDeadlineSuccess: a generous deadline changes neither the
// outcome nor (materially) the timing — the deadline trailer adds eight
// bytes of marshaling, nothing more.
func TestVRPCDeadlineSuccess(t *testing.T) {
	vrpcSetup(t, func(p *sim.Proc, c *Client, srv *Server) {
		if err := c.Call(p, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatal(err) // warm: first contact pays the ether-daemon import
		}
		srv.Calls = 0
		start := p.Now()
		err := c.CallDeadline(p, start+sim.Millisecond, progTest, versTest, procNull, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rtt := p.Now() - start
		if rtt < sim.Micros(62) || rtt > sim.Micros(72) {
			t.Errorf("deadline null RTT = %v, want ~66 us", rtt)
		}
		if srv.Calls != 1 || srv.Expired != 0 || srv.Shed != 0 {
			t.Errorf("server counters calls=%d expired=%d shed=%d", srv.Calls, srv.Expired, srv.Shed)
		}
	})
}

// TestVRPCOverloadedShedsFast: a shedding admission policy rejects at
// request arrival with a typed retriable error, long before the
// deadline, and leaves the connection clean for the retry.
func TestVRPCOverloadedShedsFast(t *testing.T) {
	vrpcSetup(t, func(p *sim.Proc, c *Client, srv *Server) {
		if err := c.Call(p, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatal(err) // warm
		}
		srv.Calls = 0
		srv.SetAdmission(func(phase AdmitPhase, depth int, waited, remaining sim.Time) bool {
			return false
		})
		start := p.Now()
		err := c.CallDeadline(p, start+sim.Millisecond, progTest, versTest, procNull, nil, nil)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed call err = %v, want ErrOverloaded", err)
		}
		if rej := p.Now() - start; rej > sim.Micros(100) {
			t.Errorf("rejection took %v, want fast-fail well under the deadline", rej)
		}
		if srv.Shed != 1 || srv.Calls != 0 {
			t.Errorf("server counters shed=%d calls=%d", srv.Shed, srv.Calls)
		}
		if c.Stale() != 0 {
			t.Errorf("stale = %d after typed rejection, want 0", c.Stale())
		}

		// Retriable: once the policy clears, the same connection serves.
		srv.SetAdmission(nil)
		if err := c.CallDeadline(p, p.Now()+sim.Millisecond, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatalf("post-shed call err = %v", err)
		}
		if srv.Calls != 1 {
			t.Errorf("server calls = %d, want 1", srv.Calls)
		}
	})
}

// twoClientSetup boots a three-node cluster with the server on node 2
// and hands the test two dialed clients on nodes 0 and 1.
func twoClientSetup(t *testing.T, service sim.Time, fn func(p *sim.Proc, eng *sim.Engine, a, b *Client, srv *Server)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	cl, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 3, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cl.Go("rpc-test", func(p *sim.Proc) {
		sproc, err := cl.Nodes[2].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		srv, err := NewServer(p, sproc, 2)
		if err != nil {
			t.Error(err)
			return
		}
		registerTestProcs(srv)
		registerSlowProc(srv, service)
		srv.Start()

		var clients [2]*Client
		for i := 0; i < 2; i++ {
			proc, err := cl.Nodes[i].NewProcess(p)
			if err != nil {
				t.Error(err)
				return
			}
			clients[i], err = Dial(p, proc, 2, i)
			if err != nil {
				t.Error(err)
				return
			}
			// Warm: first contact pays the ether-daemon import.
			if err := clients[i].Call(p, progTest, versTest, procNull, nil, nil); err != nil {
				t.Error(err)
				return
			}
		}
		srv.Calls = 0
		fn(p, eng, clients[0], clients[1], srv)
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
}

// TestVRPCDeadlineExpiredAtServer: a request whose budget runs out while
// the server is busy is refused with the server-side typed error — the
// handler never runs (no dead work) — and the connection stays clean.
func TestVRPCDeadlineExpiredAtServer(t *testing.T) {
	twoClientSetup(t, sim.Micros(300), func(p *sim.Proc, eng *sim.Engine, a, b *Client, srv *Server) {
		// Time the slow call alone. Queued behind it, the expired request
		// is refused as soon as the slow call's reply has gone out, so its
		// verdict lands a reject stub after the slow call ends: a deadline
		// just before that end puts it inside the client's reply grace.
		start := p.Now()
		if err := a.Call(p, progTest, versTest, procSlow, nil, nil); err != nil {
			t.Fatal(err)
		}
		slowEnd := p.Now() - start
		srv.Calls = 0

		start = p.Now()
		done := false
		eng.Go("occupier", func(ap *sim.Proc) {
			defer func() { done = true }()
			if err := a.Call(ap, progTest, versTest, procSlow, nil, nil); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(sim.Micros(60)) // let the slow call reach the handler

		err := b.CallDeadline(p, start+slowEnd-replyGrace/2, progTest, versTest, procNull, nil, nil)
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("expired call err = %v, want ErrDeadlineExceeded", err)
		}
		if srv.Expired != 1 {
			t.Errorf("server expired = %d, want 1", srv.Expired)
		}
		if b.Stale() != 0 {
			t.Errorf("stale = %d after typed expiry, want 0", b.Stale())
		}
		for !done {
			p.Sleep(sim.Micros(50))
		}

		// The budget only covered the queueing delay, not the work: the
		// handler must not have run for the expired request.
		if srv.Calls != 1 {
			t.Errorf("server calls = %d, want 1 (slow call only)", srv.Calls)
		}
		if err := b.CallDeadline(p, p.Now()+sim.Millisecond, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatalf("follow-up call err = %v", err)
		}
	})
}

// TestVRPCTimeoutServerCrash: the satellite regression — a server that
// crashes mid-call yields a typed ErrRPCTimeout at the deadline, not a
// hang. Before deadlines existed this wait was unbounded.
func TestVRPCTimeoutServerCrash(t *testing.T) {
	eng := sim.NewEngine()
	eng.VerifySkips()
	cl, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 2, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cl.Go("rpc-test", func(p *sim.Proc) {
		sproc, err := cl.Nodes[1].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		srv, err := NewServer(p, sproc, 1)
		if err != nil {
			t.Error(err)
			return
		}
		registerTestProcs(srv)
		srv.Start()
		cproc, err := cl.Nodes[0].NewProcess(p)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := Dial(p, cproc, 1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Warm call proves the path works before the crash.
		if err := c.Call(p, progTest, versTest, procNull, nil, nil); err != nil {
			t.Fatal(err)
		}

		cl.CrashNode(1)
		start := p.Now()
		deadline := start + sim.Micros(200)
		err = c.CallDeadline(p, deadline, progTest, versTest, procNull, nil, nil)
		if !errors.Is(err, ErrRPCTimeout) {
			t.Fatalf("call into crashed server err = %v, want ErrRPCTimeout", err)
		}
		if now := p.Now(); now < deadline || now > deadline+replyGrace+sim.Micros(10) {
			t.Errorf("timeout fired at %v, want within grace of deadline %v", now, deadline)
		}
		if c.Stale() != 1 {
			t.Errorf("stale = %d after timeout, want 1", c.Stale())
		}
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
}

// TestVRPCTimeoutThenDrainRecovers: after a timeout the connection is
// dirty; the next deadline call first drains the late reply and then
// completes normally — the slot sequence protocol survives abandonment.
func TestVRPCTimeoutThenDrainRecovers(t *testing.T) {
	twoClientSetup(t, sim.Micros(200), func(p *sim.Proc, eng *sim.Engine, a, b *Client, srv *Server) {
		done := false
		eng.Go("occupier", func(ap *sim.Proc) {
			defer func() { done = true }()
			if err := a.Call(ap, progTest, versTest, procSlow, nil, nil); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(sim.Micros(60))

		// Default grace (25 us) is far shorter than the 200 us occupancy:
		// this call times out before the server's verdict can arrive.
		err := b.CallDeadline(p, p.Now()+sim.Micros(50), progTest, versTest, procNull, nil, nil)
		if !errors.Is(err, ErrRPCTimeout) {
			t.Fatalf("call err = %v, want ErrRPCTimeout", err)
		}
		if b.Stale() != 1 {
			t.Fatalf("stale = %d, want 1", b.Stale())
		}

		var sum int32
		err = b.CallDeadline(p, p.Now()+2*sim.Millisecond, progTest, versTest, procAdd,
			func(e *xdr.Encoder) { e.PutInt32(40); e.PutInt32(2) },
			func(d *xdr.Decoder) error { v, err := d.Int32(); sum = v; return err })
		if err != nil {
			t.Fatalf("post-timeout call err = %v", err)
		}
		if sum != 42 {
			t.Errorf("sum = %d, want 42", sum)
		}
		if b.Stale() != 0 {
			t.Errorf("stale = %d after drain, want 0", b.Stale())
		}
		if srv.Expired != 1 {
			t.Errorf("server expired = %d, want 1 (the abandoned call)", srv.Expired)
		}
		for !done {
			p.Sleep(sim.Micros(50))
		}
	})
}

// vrpcSpinTrace drives three deadline calls and one into a crashed server
// (it times out at deadline + grace) and returns every virtual timestamp the client saw
// plus the scheduler's counts over the exchange. With beat set an event
// fires every half spin interval from the first call on and stores a
// scratch byte into each node's memory (an event that writes nothing
// disturbs no memory-scoped spin), so no spin sample anywhere in the stack
// can be elided: the run is the eliding primitive degraded to PollEvery's
// one-event-per-sample behavior.
func vrpcSpinTrace(t *testing.T, beat bool) (stamps []sim.Time, dispatched, elided, beats uint64) {
	t.Helper()
	eng := sim.NewEngine()
	eng.VerifySkips()
	cl, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 2, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cl.Go("rpc-test", func(p *sim.Proc) {
		sproc, _ := cl.Nodes[1].NewProcess(p)
		srv, err := NewServer(p, sproc, 1)
		if err != nil {
			t.Error(err)
			return
		}
		registerTestProcs(srv)
		srv.Start()
		cproc, _ := cl.Nodes[0].NewProcess(p)
		c, err := Dial(p, cproc, 1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Warm: first contact pays the ether-daemon import.
		if err := c.Call(p, progTest, versTest, procNull, nil, nil); err != nil {
			t.Error(err)
			return
		}
		// Physical addresses: the server's process handle dies with its
		// node, the node's memory does not.
		var scratch [2]mem.PhysAddr
		for i, proc := range []*vmmc.Process{cproc, sproc} {
			va, _ := proc.Malloc(mem.PageSize)
			scratch[i], _ = proc.AS.Translate(va)
		}
		done := false
		defer func() { done = true }()
		if beat {
			var tick func()
			tick = func() {
				if !done {
					beats++
					for i, pa := range scratch {
						cl.Nodes[i].Phys.Write(pa, []byte{byte(beats)})
					}
					eng.After(cl.Nodes[0].Prof.SpinCheckInterval/2, tick)
				}
			}
			eng.After(0, tick)
		}
		before := eng.SchedStats()

		for i := 0; i < 3; i++ {
			err := c.CallDeadline(p, p.Now()+sim.Millisecond, progTest, versTest, procNull, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			stamps = append(stamps, p.Now())
		}
		cl.CrashNode(1)
		// Off the spin grid on purpose: the timeout is the first sample
		// at or after deadline + grace, not the deadline itself.
		err = c.CallDeadline(p, p.Now()+sim.Micros(200)+37, progTest, versTest, procNull, nil, nil)
		if !errors.Is(err, ErrRPCTimeout) {
			t.Errorf("call into crashed server err = %v, want ErrRPCTimeout", err)
		}
		stamps = append(stamps, p.Now())

		after := eng.SchedStats()
		dispatched = after.Dispatched - before.Dispatched
		elided = after.Elided - before.Elided
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	return stamps, dispatched, elided, beats
}

// TestVRPCDeadlineSpinElisionExact: awaitReply hands its deadline to the
// spin instead of reading the clock in the predicate, so its samples can
// be elided. Successful calls and the timeout must land on the same
// virtual timestamps as when every sample is evaluated, and the samples
// not dispatched must be exactly the ones reported elided.
func TestVRPCDeadlineSpinElisionExact(t *testing.T) {
	stamps, disp, elided, _ := vrpcSpinTrace(t, false)
	forced, forcedDisp, forcedElided, beats := vrpcSpinTrace(t, true)
	if len(stamps) != 4 {
		t.Fatalf("trace incomplete: %v", stamps)
	}
	for i := range stamps {
		if i >= len(forced) || stamps[i] != forced[i] {
			t.Fatalf("virtual timestamps differ: elided %v, every sample evaluated %v", stamps, forced)
		}
	}
	if elided == 0 {
		t.Fatal("nothing elided: the test exercises nothing")
	}
	if forcedElided != 0 {
		t.Errorf("%d samples elided under the heartbeat", forcedElided)
	}
	if forcedDisp-beats != disp+elided {
		t.Errorf("every-sample run dispatched %d (less %d beats) != %d dispatched + %d elided",
			forcedDisp, beats, disp, elided)
	}
	// The timed-out wait alone is ~2000 samples; almost none may run.
	if disp*4 > disp+elided {
		t.Errorf("dispatched %d of %d events+samples: the bounded spin is not being elided", disp, disp+elided)
	}
}
