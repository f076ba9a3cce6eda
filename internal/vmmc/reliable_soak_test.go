package vmmc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Soak test: sustained traffic through the reliability layer under
// random wire corruption at several error rates. Every run must deliver
// every message byte-exact (go-back-N recovers all damage), must
// terminate (liveness: the retransmit machinery never wedges), and the
// drop accounting must reconcile exactly — every packet the NIC
// delivered is either handed up or counted in one drop bucket, and every
// injected corruption is counted by exactly one side's CRC check.
func TestReliableSoakUnderLoss(t *testing.T) {
	for _, ber := range []float64{2e-5, 1e-4, 5e-4} {
		t.Run(fmt.Sprintf("ber=%g", ber), func(t *testing.T) {
			const (
				msgs    = 96
				msgSize = 2048
				total   = msgs * msgSize
			)
			eng := sim.NewEngine()
			eng.VerifySkips()
			c, err := NewCluster(eng, Options{Nodes: 2, Reliable: true})
			if err != nil {
				t.Fatal(err)
			}
			c.Net.VerifyIntact()
			c.Go("soak", func(p *simProc) {
				recv, _ := c.Nodes[1].NewProcess(p)
				send, _ := c.Nodes[0].NewProcess(p)
				buf, _ := recv.Malloc(total)
				if err := recv.Export(p, 1, buf, total, nil, false); err != nil {
					t.Error(err)
					return
				}
				dest, _, err := send.Import(p, 1, 1)
				if err != nil {
					t.Error(err)
					return
				}
				src, _ := send.Malloc(total)
				msg := make([]byte, total)
				for i := range msg {
					msg[i] = byte(1 + i*13 + i/msgSize)
				}
				if err := send.Write(src, msg); err != nil {
					t.Error(err)
					return
				}

				// Attach the fault plan after boot so the identities below
				// see only workload traffic; BER on the sender's link
				// corrupts outgoing data and incoming acknowledgements.
				pl := fault.NewPlan(eng, 0xB0B)
				c.Net.SetFaults(pl)
				pl.SetLinkBER(c.Nodes[0].Board.NIC.ID, ber)
				n0, n1 := c.Nodes[0], c.Nodes[1]
				delivered := fmt.Sprintf("nic%d/packets_delivered", n1.Board.NIC.ID)
				delivered0 := counter(t, eng, delivered)

				for i := 0; i < msgs; i++ {
					off := mem.VirtAddr(i * msgSize)
					if err := send.SendMsgSync(p, src+off, dest+ProxyAddr(uint64(off)), msgSize, SendOptions{}); err != nil {
						t.Errorf("msg %d: %v", i, err)
						return
					}
				}
				// In-order link delivery: the last byte of the last message
				// arriving means everything before it arrived too.
				recv.SpinByte(p, buf+mem.VirtAddr(total-1), msg[total-1])
				// Let straggling retransmits of already-delivered packets
				// and the final acks drain before reconciling.
				p.Sleep(20 * sim.Millisecond)

				got, _ := recv.Read(buf, total)
				if !bytes.Equal(got, msg) {
					t.Errorf("ber %g: delivered bytes differ from sent", ber)
				}

				dataPkts := counter(t, eng, delivered) - delivered0
				up, dup := boardCounter(t, n1, "rl_deliveries"), boardCounter(t, n1, "rl_dup_drops")
				gap, corrupt := boardCounter(t, n1, "rl_gap_drops"), boardCounter(t, n1, "rl_corrupt_drops")
				if accounted := up + dup + gap + corrupt; accounted != dataPkts {
					t.Errorf("ber %g: nic delivered %d data packets, link layer accounted %d (%d up, %d dup, %d gap, %d corrupt)",
						ber, dataPkts, accounted, up, dup, gap, corrupt)
				}
				ackCorrupt := boardCounter(t, n0, "rl_corrupt_drops")
				if inj := counter(t, eng, "fault/corruptions"); inj != corrupt+ackCorrupt {
					t.Errorf("ber %g: %d corruptions injected, %d caught (%d data side, %d ack side)",
						ber, inj, corrupt+ackCorrupt, corrupt, ackCorrupt)
				}
				if up != msgs {
					t.Errorf("ber %g: %d packets delivered up, want %d", ber, up, msgs)
				}
				if boardCounter(t, n0, "rl_unreachable") != 0 {
					t.Errorf("ber %g: spurious unreachable declaration", ber)
				}
				if ber >= 1e-4 && boardCounter(t, n0, "rl_retransmits") == 0 {
					t.Errorf("ber %g: soak exercised no retransmissions", ber)
				}
			})
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
