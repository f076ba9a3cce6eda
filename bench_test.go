// Benchmark harness: one testing.B target per figure and table of the
// paper's evaluation. The interesting output is the simulated metric
// reported next to each benchmark (sim-us/op, sim-MB/s), not the wall
// time: these run a deterministic discrete-event simulation whose virtual
// clock reproduces the paper's measurements.
//
//	go test -bench=. -benchmem
package vmmcnet_test

import (
	"testing"

	"repro/internal/baselines/fm"
	"repro/internal/baselines/gmapi"
	"repro/internal/baselines/pm"
	"repro/internal/baselines/testbed"
	"repro/internal/bench"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/rpc"
	"repro/internal/shrimp"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// clamp keeps simulated iteration counts sane when testing.B scales up.
func clamp(n, lo, hi int) int {
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// --- Figure 1 ---

func BenchmarkFig1HostDMA(b *testing.B) {
	var at4k float64
	for i := 0; i < b.N; i++ {
		series, err := bench.Fig1HostDMA()
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range series[0].Points {
			if pt.X == 4096 {
				at4k = pt.Y
			}
		}
	}
	b.ReportMetric(at4k, "sim-MB/s-at-4K")
}

// --- Figure 2 / headline latency ---

func BenchmarkFig2Latency(b *testing.B) {
	iters := clamp(b.N, 10, 2000)
	var lat float64
	err := bench.RunPair(nil, 4096, func(p *sim.Proc, pr *bench.Pair) error {
		v, err := pr.PingPongLatency(p, 4, iters)
		if err != nil {
			return err
		}
		lat = v
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lat, "sim-us/msg")
	b.ReportMetric(9.8, "paper-us/msg")
}

// --- Figure 3 / headline bandwidth ---

func BenchmarkFig3Bandwidth(b *testing.B) {
	count := clamp(b.N, 8, 64)
	var bw float64
	err := bench.RunPair(nil, 1<<20, func(p *sim.Proc, pr *bench.Pair) error {
		v, err := pr.OneWayBandwidth(p, 1<<20, count)
		if err != nil {
			return err
		}
		bw = v
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportMetric(bw, "sim-MB/s")
	b.ReportMetric(80.4, "paper-MB/s")
}

func BenchmarkFig3Bidirectional(b *testing.B) {
	count := clamp(b.N, 6, 32)
	var bw float64
	err := bench.RunPair(nil, 1<<20, func(p *sim.Proc, pr *bench.Pair) error {
		v, err := pr.BidirectionalBandwidth(p, 1<<20, count)
		if err != nil {
			return err
		}
		bw = v
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(bw, "sim-MB/s-total")
	b.ReportMetric(91, "paper-MB/s-total")
}

// --- Figure 4 ---

func BenchmarkFig4SendOverheadSync(b *testing.B) {
	iters := clamp(b.N, 10, 2000)
	var v4, v4k float64
	err := bench.RunPair(nil, 8192, func(p *sim.Proc, pr *bench.Pair) error {
		var err error
		if v4, err = pr.SendOverhead(p, 4, iters, true); err != nil {
			return err
		}
		if v4k, err = pr.SendOverhead(p, 4096, clamp(iters, 10, 200), true); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v4, "sim-us/4B")
	b.ReportMetric(v4k, "sim-us/4KB")
}

func BenchmarkFig4SendOverheadAsync(b *testing.B) {
	iters := clamp(b.N, 10, 2000)
	var v4, v4k float64
	err := bench.RunPair(nil, 8192, func(p *sim.Proc, pr *bench.Pair) error {
		var err error
		if v4, err = pr.SendOverhead(p, 4, iters, false); err != nil {
			return err
		}
		if v4k, err = pr.SendOverhead(p, 4096, clamp(iters, 10, 200), false); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v4, "sim-us/4B")
	b.ReportMetric(v4k, "sim-us/4KB")
}

// --- Section 5.2 cost table ---

func BenchmarkTabHwPostRequest(b *testing.B) {
	eng := sim.NewEngine()
	c, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	var cost sim.Time
	iters := clamp(b.N, 1, 100000)
	c.Go("post", func(p *sim.Proc) {
		cpu := c.Nodes[0].CPU
		start := p.Now()
		for i := 0; i < iters; i++ {
			cpu.MMIOWriteWords(p, 5)
		}
		cost = (p.Now() - start) / sim.Time(iters)
	})
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cost.Micros(), "sim-us/post")
}

// --- Section 5.4 vRPC ---

func BenchmarkVRPCNull(b *testing.B) {
	iters := clamp(b.N, 10, 2000)
	rtt := runVRPC(b, func(p *sim.Proc, c *rpc.Client) float64 {
		if err := c.Call(p, 0x20000042, 1, 0, nil, nil); err != nil {
			b.Fatal(err)
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := c.Call(p, 0x20000042, 1, 0, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		return (p.Now() - start).Micros() / float64(iters)
	})
	b.ReportMetric(rtt, "sim-us/call")
	b.ReportMetric(66, "paper-us/call")
}

func BenchmarkVRPCBulk(b *testing.B) {
	iters := clamp(b.N, 5, 100)
	const size = 100 << 10
	bw := runVRPC(b, func(p *sim.Proc, c *rpc.Client) float64 {
		payload := make([]byte, size)
		call := func() error {
			return c.Call(p, 0x20000042, 1, 1,
				func(e *xdr.Encoder) { e.PutOpaque(payload) },
				func(d *xdr.Decoder) error { _, err := d.Opaque(1 << 20); return err })
		}
		if err := call(); err != nil {
			b.Fatal(err)
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := call(); err != nil {
				b.Fatal(err)
			}
		}
		perDir := (p.Now() - start).Seconds() / float64(2*iters)
		return size / perDir / 1e6
	})
	b.ReportMetric(bw, "sim-MB/s")
}

func runVRPC(b *testing.B, fn func(*sim.Proc, *rpc.Client) float64) float64 {
	b.Helper()
	eng := sim.NewEngine()
	cl, err := vmmc.NewCluster(eng, vmmc.Options{Nodes: 2, MemBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	var out float64
	cl.Go("vrpc", func(p *sim.Proc) {
		sproc, err := cl.Nodes[1].NewProcess(p)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := rpc.NewServer(p, sproc, 1)
		if err != nil {
			b.Fatal(err)
		}
		srv.Register(0x20000042, 1, 0, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
			return xdr.AcceptSuccess
		})
		srv.Register(0x20000042, 1, 1, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
			data, err := args.Opaque(1 << 20)
			if err != nil {
				return xdr.AcceptGarbageArgs
			}
			res.PutOpaque(data)
			return xdr.AcceptSuccess
		})
		srv.Start()
		cproc, err := cl.Nodes[0].NewProcess(p)
		if err != nil {
			b.Fatal(err)
		}
		client, err := rpc.Dial(p, cproc, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		out = fn(p, client)
	})
	if err := cl.Start(); err != nil {
		b.Fatal(err)
	}
	return out
}

// --- Section 6: SHRIMP vs Myrinet ---

func BenchmarkShrimpVsMyrinet(b *testing.B) {
	eng := sim.NewEngine()
	sys := shrimp.New(eng, hw.DefaultSHRIMP(), 2, 16<<20)
	iters := clamp(b.N, 5, 500)
	var lat, bw float64
	eng.Go("bench", func(p *sim.Proc) {
		recv := sys.Nodes[1].NewProcess()
		send := sys.Nodes[0].NewProcess()
		buf, _ := recv.Malloc(64 * mem.PageSize)
		if err := recv.Export(p, 1, buf, 64*mem.PageSize, nil); err != nil {
			b.Fatal(err)
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		src, _ := send.Malloc(64 * mem.PageSize)
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := send.SendDeliberate(p, src, dest, 4); err != nil {
				b.Fatal(err)
			}
		}
		lat = (p.Now() - start).Micros() / float64(iters)
		start = p.Now()
		if err := send.SendDeliberate(p, src, dest, 64*mem.PageSize); err != nil {
			b.Fatal(err)
		}
		bw = float64(64*mem.PageSize) / (p.Now() - start).Seconds() / 1e6
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lat, "sim-us/1word-shrimp")
	b.ReportMetric(bw, "sim-MB/s-shrimp")
}

// --- Section 7: related work ---

func BenchmarkRelatedWorkFM(b *testing.B) {
	eng := sim.NewEngine()
	r, err := testbed.New(eng, hw.Default())
	if err != nil {
		b.Fatal(err)
	}
	sys := fm.New(eng, r)
	iters := clamp(b.N, 5, 500)
	var lat float64
	eng.Go("fm", func(p *sim.Proc) {
		sys.Eps[0].Send(p, make([]byte, 8))
		sys.Eps[1].Extract(p, 1)
		eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < iters; i++ {
				m := sys.Eps[1].Extract(bp, 1)
				sys.Eps[1].Send(bp, m[0])
			}
		})
		start := p.Now()
		for i := 0; i < iters; i++ {
			sys.Eps[0].Send(p, make([]byte, 8))
			sys.Eps[0].Extract(p, 1)
		}
		lat = (p.Now() - start).Micros() / float64(2*iters)
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lat, "sim-us/msg")
	b.ReportMetric(10.7, "paper-us/msg")
}

func BenchmarkRelatedWorkPM(b *testing.B) {
	eng := sim.NewEngine()
	r, err := testbed.New(eng, hw.Default())
	if err != nil {
		b.Fatal(err)
	}
	sys := pm.New(eng, r)
	iters := clamp(b.N, 5, 500)
	var lat float64
	eng.Go("pm", func(p *sim.Proc) {
		ch, err := sys.OpenChannel(1)
		if err != nil {
			b.Fatal(err)
		}
		ch.Send(p, 0, make([]byte, 8), false)
		ch.Recv(p, 1)
		eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < iters; i++ {
				m := ch.Recv(bp, 1)
				ch.Send(bp, 1, m, false)
			}
		})
		start := p.Now()
		for i := 0; i < iters; i++ {
			ch.Send(p, 0, make([]byte, 8), false)
			ch.Recv(p, 0)
		}
		lat = (p.Now() - start).Micros() / float64(2*iters)
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lat, "sim-us/msg")
	b.ReportMetric(7.2, "paper-us/msg")
}

func BenchmarkRelatedWorkGMAPI(b *testing.B) {
	eng := sim.NewEngine()
	r, err := testbed.New(eng, hw.Default())
	if err != nil {
		b.Fatal(err)
	}
	sys := gmapi.New(eng, r)
	iters := clamp(b.N, 5, 200)
	var lat float64
	eng.Go("gmapi", func(p *sim.Proc) {
		sys.Eps[0].Send(p, make([]byte, 4))
		sys.Eps[1].Recv(p)
		eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < iters; i++ {
				m := sys.Eps[1].Recv(bp)
				sys.Eps[1].Send(bp, m)
			}
		})
		start := p.Now()
		for i := 0; i < iters; i++ {
			sys.Eps[0].Send(p, []byte{1, 2, 3, 4})
			sys.Eps[0].Recv(p)
		}
		lat = (p.Now() - start).Micros() / float64(2*iters)
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lat, "sim-us/msg")
	b.ReportMetric(63, "paper-us/msg")
}

// --- Ablations (design choices called out in DESIGN.md) ---

func benchAblationBandwidth(b *testing.B, mutate func(*hw.Profile)) float64 {
	b.Helper()
	prof := hw.Default()
	mutate(&prof)
	count := clamp(b.N, 6, 24)
	var bw float64
	err := bench.RunPair(&prof, 1<<20, func(p *sim.Proc, pr *bench.Pair) error {
		v, err := pr.OneWayBandwidth(p, 1<<20, count)
		if err != nil {
			return err
		}
		bw = v
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return bw
}

func BenchmarkAblationPipelineOn(b *testing.B) {
	bw := benchAblationBandwidth(b, func(p *hw.Profile) {})
	b.ReportMetric(bw, "sim-MB/s")
}

func BenchmarkAblationPipelineOff(b *testing.B) {
	bw := benchAblationBandwidth(b, func(p *hw.Profile) {
		p.PipelineChunks = false
		p.PrecomputeHeaders = false
	})
	b.ReportMetric(bw, "sim-MB/s")
}

func BenchmarkAblationTightLoopOff(b *testing.B) {
	bw := benchAblationBandwidth(b, func(p *hw.Profile) { p.TightSendLoop = false })
	b.ReportMetric(bw, "sim-MB/s")
}

func BenchmarkAblationThreshold64(b *testing.B) {
	prof := hw.Default()
	prof.ShortSendMax = 64
	iters := clamp(b.N, 10, 500)
	var v float64
	err := bench.RunPair(&prof, 8192, func(p *sim.Proc, pr *bench.Pair) error {
		var err error
		if v, err = pr.SendOverhead(p, 128, iters, true); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "sim-us/128B-sync")
}

func BenchmarkAblationColdTLB(b *testing.B) {
	const size = 64 * mem.PageSize
	var cold float64
	err := bench.RunPair(nil, size, func(p *sim.Proc, pr *bench.Pair) error {
		buf, err := pr.A.Malloc(size)
		if err != nil {
			return err
		}
		start := p.Now()
		if err := pr.A.SendMsgSync(p, buf, pr.ToB, size, vmmc.SendOptions{}); err != nil {
			return err
		}
		cold = (p.Now() - start).Micros()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cold, "sim-us/cold-256KB")
}

func BenchmarkAblationSenders(b *testing.B) {
	iters := clamp(b.N, 10, 500)
	var lat float64
	err := bench.RunPair(nil, 4096, func(p *sim.Proc, pr *bench.Pair) error {
		for i := 0; i < 4; i++ {
			if _, err := pr.C.Nodes[0].NewProcess(p); err != nil {
				return err
			}
		}
		v, err := pr.PingPongLatency(p, 4, iters)
		if err != nil {
			return err
		}
		lat = v
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lat, "sim-us/msg-5senders")
}
