package hw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDefaultProfileMatchesPaperConstants(t *testing.T) {
	p := Default()
	if p.PCIReadCost != sim.Micros(0.422) {
		t.Errorf("PCI read = %v, paper says 0.422us", p.PCIReadCost)
	}
	if p.PCIWriteCost != sim.Micros(0.121) {
		t.Errorf("PCI write = %v, paper says 0.121us", p.PCIWriteCost)
	}
	if p.LinkRate != 160e6 {
		t.Errorf("link rate = %v, paper says 1.28 Gb/s = 160 MB/s", p.LinkRate)
	}
	if p.BcopyRate != 50e6 {
		t.Errorf("bcopy = %v, paper says ~50 MB/s", p.BcopyRate)
	}
	if p.ShortSendMax != 128 {
		t.Errorf("short/long threshold = %d, paper says 128", p.ShortSendMax)
	}
	if p.MaxTransfer != 8<<20 {
		t.Errorf("max transfer = %d, paper says 8 MB", p.MaxTransfer)
	}
	if p.SRAMSize != 256<<10 {
		t.Errorf("SRAM = %d, paper says 256 KB", p.SRAMSize)
	}
	// The calibration linchpin: 4 KB host-read DMA = the 82 MB/s limit.
	cost := p.HostToLANai.Cost(4096)
	mbps := 4096 / cost.Seconds() / 1e6
	if mbps < 80 || mbps > 84 {
		t.Errorf("4KB read DMA = %.1f MB/s, want ~82", mbps)
	}
	// Writes must be faster than reads per byte.
	if p.LANaiToHost.Cost(4096) >= p.HostToLANai.Cost(4096) {
		t.Error("PCI writes should be faster than reads")
	}
	// Paper's §5.2 receive-side budget: one-word deposit in ~2 us.
	if d := p.LANaiToHost.Cost(4); d > sim.Micros(2) {
		t.Errorf("one-word host deposit = %v, paper budgets ~2us for the whole receive side", d)
	}
	if !p.PipelineChunks || !p.PrecomputeHeaders || !p.TightSendLoop {
		t.Error("the paper's optimizations must default on")
	}
}

func TestDefaultSHRIMPConstants(t *testing.T) {
	p := DefaultSHRIMP()
	// §6: initiation = two writes + state machine, 2-3 us total.
	total := 2*p.EISAWriteCost + p.InitiateCost
	if total < sim.Micros(2) || total > sim.Micros(3) {
		t.Errorf("SHRIMP initiation = %v, paper says 2-3 us", total)
	}
	// §6: 23 MB/s user-to-user hardware limit.
	cost := p.DMA.Cost(4096)
	mbps := 4096 / cost.Seconds() / 1e6
	if mbps < 22 || mbps > 25 {
		t.Errorf("SHRIMP page DMA = %.1f MB/s, want ~23", mbps)
	}
}

// Property: DMA cost is monotone in size and always at least the setup.
func TestDMAProfileMonotoneProperty(t *testing.T) {
	p := Default().HostToLANai
	f := func(a, b uint16) bool {
		ca, cb := p.Cost(int(a)), p.Cost(int(b))
		if a <= b && ca > cb {
			return false
		}
		return ca >= p.Setup && cb >= p.Setup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
