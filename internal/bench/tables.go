package bench

import (
	"fmt"

	"repro/internal/baselines/fm"
	"repro/internal/baselines/gmapi"
	"repro/internal/baselines/pm"
	"repro/internal/ether"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/rpc"
	"repro/internal/shrimp"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// TableHardwareCosts regenerates the Section 5.2 cost measurements: the
// building blocks of the ~5 us minimum hardware latency.
func (rn *Run) TableHardwareCosts() (Table, error) {
	t := Table{
		Title:   "Hardware cost microprobes (§5.2)",
		Columns: []string{"operation", "measured", "paper"},
	}
	prof := hw.Default()
	err := rn.RunPair(vmmc.Options{}, 4096, func(p *sim.Proc, pr *Pair) error {
		cpu := pr.C.Nodes[0].CPU

		start := p.Now()
		cpu.MMIORead(p)
		readCost := p.Now() - start

		start = p.Now()
		cpu.MMIOWrite(p)
		writeCost := p.Now() - start

		start = p.Now()
		cpu.MMIOWriteWords(p, 5)
		postCost := p.Now() - start

		lat, err := pr.PingPongLatency(p, 4, 100)
		if err != nil {
			return err
		}

		// The hardware floor: posting plus the LANai path with all
		// software costs zeroed is what the paper estimates at ~5 us.
		hwMin := postCost +
			prof.NetSend.Cost(37) + prof.SwitchLatency + prof.NetRecv.Cost(36) +
			sim.Micros(2.5) + // LANai pickup/prep/inject/receive estimate (§5.2)
			prof.LANaiToHost.Cost(4)

		t.Rows = [][]string{
			{"memory-mapped I/O read", fmt.Sprintf("%.3f us", readCost.Micros()), "0.422 us"},
			{"memory-mapped I/O write", fmt.Sprintf("%.3f us", writeCost.Micros()), "0.121 us"},
			{"post send request (writes only)", fmt.Sprintf("%.3f us", postCost.Micros()), ">= 0.5 us"},
			{"minimum hardware latency (est.)", fmt.Sprintf("%.1f us", hwMin.Micros()), "~5 us"},
			{"measured one-way latency", fmt.Sprintf("%.1f us", lat), "9.8 us"},
		}
		return nil
	})
	return t, err
}

// TableVRPC regenerates the Section 5.4 vRPC results: SunRPC-compatible
// RPC over VMMC on both platforms, plus the kernel-UDP baseline.
func (rn *Run) TableVRPC() (Table, error) {
	t := Table{
		Title:   "vRPC (§5.4)",
		Columns: []string{"configuration", "null RTT", "bulk bandwidth", "paper"},
	}

	myriRTT, myriBW, err := rn.vrpcMyrinet("vrpc on myrinet", false)
	if err != nil {
		return t, err
	}

	// SHRIMP.
	shrimpCell := rn.newCell("vrpc on shrimp")
	sys := shrimp.New(shrimpCell.eng, hw.DefaultSHRIMP(), 2, 16<<20)
	var shrimpRTT float64
	err = shrimpCell.run("vrpc-shrimp", func(p *sim.Proc) error {
		srv, err := rpc.NewShrimpServer(p, sys, 1)
		if err != nil {
			return err
		}
		registerBenchProcs(srv)
		srv.Start()
		c, err := rpc.DialShrimp(p, sys, 0, 1)
		if err != nil {
			return err
		}
		shrimpRTT, err = nullRTT(p, 50, func(q *sim.Proc) error {
			return c.Call(q, benchProg, 1, 0, nil, nil)
		})
		return err
	})
	if err != nil {
		return t, err
	}

	// Kernel UDP: the SunRPC compatibility baseline on a 1 ms Ethernet.
	udpCell := rn.newCell("sunrpc over udp")
	eth := ether.New(udpCell.eng, sim.Millisecond)
	registerBenchProcs(rpc.NewUDPServer(udpCell.eng, eth, 1))
	udp := rpc.NewUDPClient(eth, 0, 1)
	var udpRTT float64
	err = udpCell.run("sunrpc-udp", func(p *sim.Proc) error {
		var err error
		udpRTT, err = nullRTT(p, 5, func(q *sim.Proc) error {
			return udp.Call(q, benchProg, 1, 0, nil, nil)
		})
		return err
	})
	if err != nil {
		return t, err
	}

	t.Rows = [][]string{
		{"vRPC over VMMC/Myrinet", fmt.Sprintf("%.1f us", myriRTT), fmt.Sprintf("%.1f MB/s", myriBW), "66 us; bandwidth cut by one receive copy"},
		{"vRPC over VMMC/SHRIMP", fmt.Sprintf("%.1f us", shrimpRTT), "-", "33 us"},
		{"SunRPC over kernel UDP", fmt.Sprintf("%.0f us (modeled)", udpRTT), "-", "not quoted in paper"},
	}
	return t, nil
}

// vrpcMyrinet measures vRPC between the two nodes of a Myrinet cluster:
// the null-call round trip and the 100 KB echo bandwidth per direction.
// zeroCopy puts server and client on §5.4's compatibility-free receive
// path, which decodes in place instead of copying each message out.
func (rn *Run) vrpcMyrinet(name string, zeroCopy bool) (rtt, bw float64, err error) {
	_, err = rn.newCell(name).cluster(vmmc.Options{Nodes: 2, MemBytes: 64 << 20}, "vrpc", func(p *sim.Proc, cl *vmmc.Cluster) error {
		sproc, err := cl.Nodes[1].NewProcess(p)
		if err != nil {
			return err
		}
		srv, err := rpc.NewServer(p, sproc, 1)
		if err != nil {
			return err
		}
		registerBenchProcs(srv)
		srv.SetZeroCopy(zeroCopy)
		srv.Start()
		cproc, err := cl.Nodes[0].NewProcess(p)
		if err != nil {
			return err
		}
		c, err := rpc.Dial(p, cproc, 1, 0)
		if err != nil {
			return err
		}
		c.SetZeroCopy(zeroCopy)
		rtt, err = nullRTT(p, 50, func(q *sim.Proc) error {
			return c.Call(q, benchProg, 1, 0, nil, nil)
		})
		if err != nil {
			return err
		}
		bw, err = echoBW(p, 10, 100<<10, func(q *sim.Proc, payload []byte) error {
			return c.Call(q, benchProg, 1, 1,
				func(e *xdr.Encoder) { e.PutOpaque(payload) },
				func(d *xdr.Decoder) error { _, err := d.Opaque(1 << 20); return err })
		})
		return err
	})
	return rtt, bw, err
}

const benchProg = 0x20000042

type registrar interface {
	Register(prog, vers, proc uint32, h rpc.Handler)
}

func registerBenchProcs(r registrar) {
	r.Register(benchProg, 1, 0, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		return xdr.AcceptSuccess
	})
	r.Register(benchProg, 1, 1, func(p *sim.Proc, args *xdr.Decoder, res *xdr.Encoder) uint32 {
		data, err := args.Opaque(1 << 20)
		if err != nil {
			return xdr.AcceptGarbageArgs
		}
		res.PutOpaque(data)
		return xdr.AcceptSuccess
	})
}

func nullRTT(p *sim.Proc, iters int, call func(*sim.Proc) error) (float64, error) {
	if err := call(p); err != nil { // warm
		return 0, err
	}
	start := p.Now()
	for i := 0; i < iters; i++ {
		if err := call(p); err != nil {
			return 0, err
		}
	}
	return (p.Now() - start).Micros() / float64(iters), nil
}

func echoBW(p *sim.Proc, iters, size int, call func(*sim.Proc, []byte) error) (float64, error) {
	payload := make([]byte, size)
	if err := call(p, payload); err != nil { // warm
		return 0, err
	}
	start := p.Now()
	for i := 0; i < iters; i++ {
		if err := call(p, payload); err != nil {
			return 0, err
		}
	}
	perDir := (p.Now() - start).Seconds() / float64(2*iters)
	return float64(size) / perDir / 1e6, nil
}

// TableShrimpComparison regenerates the Section 6 design-tradeoff
// comparison between the SHRIMP and Myrinet implementations of VMMC.
func (rn *Run) TableShrimpComparison() (Table, error) {
	t := Table{
		Title:   "Network interface design tradeoffs: SHRIMP vs Myrinet (§6)",
		Columns: []string{"metric", "SHRIMP", "Myrinet", "paper"},
	}

	// Myrinet side.
	var myriLat, myriBW, myriInit float64
	err := rn.RunPair(vmmc.Options{}, 1<<20, func(p *sim.Proc, pr *Pair) error {
		lat, err := pr.PingPongLatency(p, 4, 100)
		if err != nil {
			return err
		}
		myriLat = lat
		bw, err := pr.OneWayBandwidth(p, 1<<20, 20)
		if err != nil {
			return err
		}
		myriBW = bw
		// Send initiation on Myrinet: posting is cheap but the LCP must
		// scan queues and translate in software before data moves; the
		// async post cost is the host-visible part.
		v, err := pr.SendOverhead(p, 4, 50, false)
		if err != nil {
			return err
		}
		myriInit = v
		return nil
	})
	if err != nil {
		return t, err
	}

	// SHRIMP side.
	cl := rn.newCell("shrimp")
	sys := shrimp.New(cl.eng, hw.DefaultSHRIMP(), 2, 16<<20)
	var shLat, shBW, shInit float64
	err = cl.run("shrimp-bench", func(p *sim.Proc) error {
		recv := sys.Nodes[1].NewProcess()
		send := sys.Nodes[0].NewProcess()
		buf, err := recv.Malloc(256 * mem.PageSize)
		if err != nil {
			return err
		}
		if err := recv.Export(p, 1, buf, 256*mem.PageSize, nil); err != nil {
			return err
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			return err
		}
		lat, err := sys.OneWordLatency(p, send, dest)
		if err != nil {
			return err
		}
		shLat = lat.Micros()
		src, err := send.Malloc(256 * mem.PageSize)
		if err != nil {
			return err
		}
		start := p.Now()
		if err := send.SendDeliberate(p, src, dest, 256*mem.PageSize); err != nil {
			return err
		}
		shBW = float64(256*mem.PageSize) / (p.Now() - start).Seconds() / 1e6
		shInit = sys.InitiationOverhead().Micros()
		return nil
	})
	if err != nil {
		return t, err
	}

	t.Rows = [][]string{
		{"one-word latency", fmt.Sprintf("%.1f us", shLat), fmt.Sprintf("%.1f us", myriLat), "7 vs 9.8 us"},
		{"send initiation overhead", fmt.Sprintf("%.1f us", shInit), fmt.Sprintf("%.1f us", myriInit), "2-3 us vs at least twice that (in LANai software)"},
		{"user-to-user bandwidth", fmt.Sprintf("%.1f MB/s", shBW), fmt.Sprintf("%.1f MB/s", myriBW), "23 (hw limit) vs 80.4 (98% of hw limit)"},
		{"OS support needed", "proxy mappings + state machine invalidation", "pinned-page translation only", "§6"},
		{"NIC resources", "hardware state machine", "LANai CPU + SRAM tables per process", "§6"},
	}
	return t, nil
}

// TableRelatedWork regenerates the Section 7 comparison: the other Myrinet
// messaging layers measured or quoted on this hardware class.
func (rn *Run) TableRelatedWork() (Table, error) {
	t := Table{
		Title:   "Related work on the same simulated hardware (§7)",
		Columns: []string{"system", "latency (small msg)", "peak bandwidth", "paper"},
	}

	// VMMC numbers.
	var vmmcLat, vmmcBW float64
	if err := rn.RunPair(vmmc.Options{}, 1<<20, func(p *sim.Proc, pr *Pair) error {
		lat, err := pr.PingPongLatency(p, 4, 100)
		if err != nil {
			return err
		}
		vmmcLat = lat
		bw, err := pr.OneWayBandwidth(p, 1<<20, 20)
		if err != nil {
			return err
		}
		vmmcBW = bw
		return nil
	}); err != nil {
		return t, err
	}

	// Myrinet API.
	apiLat, apiBW, err := rn.measureGMAPI()
	if err != nil {
		return t, err
	}
	// FM.
	fmLat, fmBW, err := rn.measureFM()
	if err != nil {
		return t, err
	}
	// PM.
	pmLat, pmBW, err := rn.measurePM()
	if err != nil {
		return t, err
	}

	t.Rows = [][]string{
		{"VMMC (this work)", fmt.Sprintf("%.1f us (4 B)", vmmcLat), fmt.Sprintf("%.1f MB/s", vmmcBW), "9.8 us / 80.4 MB/s"},
		{"Myrinet API", fmt.Sprintf("%.1f us (4 B)", apiLat), fmt.Sprintf("%.1f MB/s (8 KB ping-pong)", apiBW), "63 us / ~30 MB/s"},
		{"Fast Messages 2.0", fmt.Sprintf("%.1f us (8 B)", fmLat), fmt.Sprintf("%.1f MB/s (PIO-limited)", fmBW), "10.7 us / PIO-limited"},
		{"PM", fmt.Sprintf("%.1f us (8 B)", pmLat), fmt.Sprintf("%.1f MB/s (8 KB units)", pmBW), "7.2 us / saturates the DMA curve (118 on the authors' fig.1)"},
		{"Active Messages", "not modeled", "not modeled", "\"does not yet run on our hardware\""},
	}
	return t, nil
}

func (rn *Run) measureGMAPI() (lat, bw float64, err error) {
	cl := rn.newCell("myrinet api")
	r, err := cl.testbed()
	if err != nil {
		return 0, 0, err
	}
	sys := gmapi.New(cl.eng, r)
	err = cl.run("gmapi-bench", func(p *sim.Proc) error {
		sys.Eps[0].Send(p, make([]byte, 4))
		sys.Eps[1].Recv(p)
		const iters = 20
		cl.eng.Go("echo", func(bp *sim.Proc) {
			for i := 0; i < 2*iters; i++ {
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
		start = p.Now()
		for i := 0; i < iters; i++ {
			sys.Eps[0].Send(p, make([]byte, 8<<10))
			sys.Eps[0].Recv(p)
		}
		oneWay := (p.Now() - start).Seconds() / float64(2*iters)
		bw = float64(8<<10) / oneWay / 1e6
		return nil
	})
	return lat, bw, err
}

func (rn *Run) measureFM() (lat, bw float64, err error) {
	cl := rn.newCell("fm")
	r, err := cl.testbed()
	if err != nil {
		return 0, 0, err
	}
	sys := fm.New(cl.eng, r)
	err = cl.run("fm-bench", func(p *sim.Proc) error {
		sys.Eps[0].Send(p, make([]byte, 8))
		sys.Eps[1].Extract(p, 1)
		const iters = 30
		cl.eng.Go("echo", func(bp *sim.Proc) {
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

		const count = 30
		got := 0
		var doneAt sim.Time
		cl.eng.Go("sink", func(bp *sim.Proc) {
			for got < count {
				got += len(sys.Eps[1].Extract(bp, 8))
			}
			doneAt = bp.Now()
		})
		start = p.Now()
		for i := 0; i < count; i++ {
			sys.Eps[0].Send(p, make([]byte, 8<<10))
		}
		p.PollUntil(10*sim.Microsecond, 0, nil, func() bool { return doneAt != 0 })
		bw = float64(count*8<<10) / (doneAt - start).Seconds() / 1e6
		return nil
	})
	return lat, bw, err
}

func (rn *Run) measurePM() (lat, bw float64, err error) {
	cl := rn.newCell("pm")
	r, err := cl.testbed()
	if err != nil {
		return 0, 0, err
	}
	sys := pm.New(cl.eng, r)
	err = cl.run("pm-bench", func(p *sim.Proc) error {
		ch, err := sys.OpenChannel(1)
		if err != nil {
			return err
		}
		ch.Send(p, 0, make([]byte, 8), false)
		ch.Recv(p, 1)
		const iters = 30
		cl.eng.Go("echo", func(bp *sim.Proc) {
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

		const count = 10
		recvd := 0
		var doneAt sim.Time
		cl.eng.Go("sink", func(bp *sim.Proc) {
			for recvd < count {
				ch.Recv(bp, 1)
				recvd++
			}
			doneAt = bp.Now()
		})
		start = p.Now()
		for i := 0; i < count; i++ {
			if err := ch.Send(p, 0, make([]byte, 256<<10), false); err != nil {
				return err
			}
		}
		p.PollUntil(10*sim.Microsecond, 0, nil, func() bool { return doneAt != 0 })
		bw = float64(count*256<<10) / (doneAt - start).Seconds() / 1e6
		return nil
	})
	return lat, bw, err
}
