package bench

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
)

// faultSweepSeed fixes the fault plan's RNG so every run of the sweep —
// including the CI smoke run — injects the identical error sequence.
const faultSweepSeed = 0x5EED

// faultSweepBERs are the per-wire-byte bit-error probabilities swept.
// 1e-4 corrupts roughly a third of page-sized packets; the paper's
// Myrinet measured error rate is far below the smallest nonzero point.
var faultSweepBERs = []float64{0, 1e-6, 1e-5, 1e-4}

// FaultSweep measures goodput under injected wire corruption with the
// reliability layer off (the paper's §4.2 configuration: CRC errors are
// detected and dropped) and on (go-back-N recovery). Each cell transfers
// a batch of page-sized messages into distinct slots of one export and
// counts the slots that arrived byte-exact. With reliability on, every
// slot must arrive intact at every swept error rate; without it, goodput
// degrades with the loss rate but the run still terminates — the harness
// never fences on data that may have been dropped.
func (rn *Run) FaultSweep() (Table, error) {
	t := Table{
		Title: "Fault sweep: goodput vs per-byte wire error rate",
		Columns: []string{"configuration", "byte error rate", "delivered",
			"goodput", "batch time", "corruptions", "recovery"},
	}
	for _, reliable := range []bool{false, true} {
		for _, ber := range faultSweepBERs {
			row, rep, err := rn.faultSweepCase(reliable, ber)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, row)
			// The harshest cell of each configuration gets its bottleneck
			// verdict in the notes.
			if ber == faultSweepBERs[len(faultSweepBERs)-1] {
				t.Notes = append(t.Notes, analysisNote(row[0], rep))
			}
		}
	}
	return t, nil
}

// faultSweepCase runs one cell of the sweep: a two-node cluster with the
// given configuration moving 32 page-sized messages from node 0 into
// node 1's export.
func (rn *Run) faultSweepCase(reliable bool, ber float64) ([]string, *analysis.Report, error) {
	const (
		msgs    = 32
		msgSize = 4096
		window  = msgs * msgSize
	)
	cl := rn.newCell(fmt.Sprintf("faultsweep reliable=%v ber=%g", reliable, ber))
	pl := fault.NewPlan(cl.eng, faultSweepSeed)
	c, err := cl.newCluster(vmmc.Options{
		Nodes: 2, MemBytes: 16 << 20, Reliable: reliable, Faults: pl,
	})
	if err != nil {
		return nil, nil, err
	}

	// slotByte is the expected value of byte j of slot i; the last byte
	// of each slot doubles as the arrival flag the reliable path spins on.
	slotByte := func(i, j int) byte { return byte(1 + i*31 + j*7) }

	var (
		deliveredSlots int
		elapsed        sim.Time
	)
	cl.spawn(c, "faultsweep", func(p *sim.Proc) error {
		// Errors on both directions of the sender's link: data packets
		// out, acknowledgements (when reliable) back in. Armed once the
		// cluster has booted, so the error sequence does not depend on
		// how much traffic mapping sent.
		pl.SetLinkBER(c.Nodes[0].Board.NIC.ID, ber)
		pl.SetLinkBER(c.Nodes[1].Board.NIC.ID, ber)
		recv, err := c.Nodes[1].NewProcess(p)
		if err != nil {
			return err
		}
		send, err := c.Nodes[0].NewProcess(p)
		if err != nil {
			return err
		}
		buf, _ := recv.Malloc(window)
		if err := recv.Export(p, 1, buf, window, nil, false); err != nil {
			return err
		}
		dest, _, err := send.Import(p, 1, 1)
		if err != nil {
			return err
		}
		src, _ := send.Malloc(window)
		data := make([]byte, window)
		for i := 0; i < msgs; i++ {
			for j := 0; j < msgSize; j++ {
				data[i*msgSize+j] = slotByte(i, j)
			}
		}
		if err := send.Write(src, data); err != nil {
			return err
		}

		start := p.Now()
		seqs := make([]uint32, 0, msgs)
		for i := 0; i < msgs; i++ {
			off := i * msgSize
			seq, err := send.SendMsg(p, src+mem.VirtAddr(off), dest+vmmc.ProxyAddr(off), msgSize, vmmc.SendOptions{})
			if err != nil {
				return err
			}
			seqs = append(seqs, seq)
		}
		for _, seq := range seqs {
			// Completions are always written — before wire injection on
			// the unreliable path, after send-or-unreachable on the
			// reliable path — so this wait is bounded either way.
			_ = send.WaitSend(p, seq)
		}
		if reliable {
			// Go-back-N delivers in order, so the last byte of each slot
			// arriving means the whole slot arrived; the budgeted
			// retransmit loop guarantees this terminates.
			for i := 0; i < msgs; i++ {
				recv.SpinByte(p, buf+mem.VirtAddr((i+1)*msgSize-1), slotByte(i, msgSize-1))
			}
		} else {
			// Dropped packets leave no trace at the receiver; a fixed
			// drain interval lets every surviving packet land.
			p.Sleep(5 * sim.Millisecond)
		}
		elapsed = p.Now() - start

		got, err := recv.Read(buf, window)
		if err != nil {
			return err
		}
		for i := 0; i < msgs; i++ {
			exact := true
			for j := 0; j < msgSize; j++ {
				if got[i*msgSize+j] != slotByte(i, j) {
					exact = false
					break
				}
			}
			if exact {
				deliveredSlots++
			}
		}
		if reliable && deliveredSlots != msgs {
			return fmt.Errorf("delivered %d/%d slots", deliveredSlots, msgs)
		}
		return nil
	})
	if err := cl.drive(c.Start); err != nil {
		return nil, nil, err
	}

	name := "unreliable (paper §4.2)"
	recovery := fmt.Sprintf("%d crc drops", cl.count(fmt.Sprintf("node%d/lcp_crc_errors", c.Nodes[1].ID)))
	if reliable {
		name = "reliable (go-back-N)"
		recovery = fmt.Sprintf("%d retransmits", cl.count(fmt.Sprintf("lanai%d/rl_retransmits", c.Nodes[0].Board.NIC.ID)))
	}
	goodput := "0.0 MB/s"
	if deliveredSlots > 0 && elapsed > 0 {
		mbps := float64(deliveredSlots*msgSize) / elapsed.Seconds() / 1e6
		goodput = fmt.Sprintf("%.1f MB/s", mbps)
	}
	return []string{
		name,
		fmt.Sprintf("%.0e", ber),
		fmt.Sprintf("%d/%d", deliveredSlots, msgs),
		goodput,
		fmt.Sprintf("%.1f us", elapsed.Micros()),
		fmt.Sprintf("%d", cl.count("fault/corruptions")),
		recovery,
	}, cl.rep, nil
}
