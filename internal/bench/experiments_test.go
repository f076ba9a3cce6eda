package bench

import (
	"fmt"
	"strings"
	"testing"
)

// Shape tests for the figure generators: the calibration tests pin the
// absolute headline values; these verify each regenerated figure has the
// paper's qualitative shape.

func TestFig1Shape(t *testing.T) {
	series, err := new(Run).Fig1HostDMA()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("fig1 series = %d", len(series))
	}
	read := series[0]
	// Monotonically increasing with block size, saturating.
	for i := 1; i < len(read.Points); i++ {
		if read.Points[i].Y < read.Points[i-1].Y-0.5 {
			t.Errorf("read bandwidth dips at %v: %.1f -> %.1f",
				read.Points[i].X, read.Points[i-1].Y, read.Points[i].Y)
		}
	}
	// The 4 KB point is the user-bandwidth limit (~82 MB/s).
	for _, pt := range read.Points {
		if pt.X == 4096 && (pt.Y < 80 || pt.Y > 84) {
			t.Errorf("fig1 read at 4KB = %.1f MB/s, want ~82", pt.Y)
		}
	}
	// The write direction reaches the PCI peak near 128 MB/s at 64 KB.
	write := series[1]
	last := write.Points[len(write.Points)-1]
	if last.Y < 125 || last.Y > 135 {
		t.Errorf("fig1 write at 64KB = %.1f MB/s, want ~128-133", last.Y)
	}
}

func TestFig2Shape(t *testing.T) {
	s, err := new(Run).Fig2Latency()
	if err != nil {
		t.Fatal(err)
	}
	byX := map[float64]float64{}
	for _, pt := range s.Points {
		byX[pt.X] = pt.Y
	}
	if l := byX[4]; l < 9.3 || l > 10.3 {
		t.Errorf("one-word latency = %.2f, want ~9.8", l)
	}
	// Short-protocol latencies grow slowly: 128 B within a few us of 4 B.
	if byX[128]-byX[4] > 7 {
		t.Errorf("latency growth 4->128B = %.2f us, too steep", byX[128]-byX[4])
	}
	// The long protocol jumps at 192 B (> threshold).
	if byX[192] < byX[128]+3 {
		t.Errorf("no protocol jump past 128B: %.2f -> %.2f", byX[128], byX[192])
	}
}

func TestFig3Shape(t *testing.T) {
	series, err := new(Run).Fig3Bandwidth()
	if err != nil {
		t.Fatal(err)
	}
	oneway, bidir := series[0], series[1]
	owLast := oneway.Points[len(oneway.Points)-1]
	bdLast := bidir.Points[len(bidir.Points)-1]
	if owLast.Y < 78 || owLast.Y > 82.5 {
		t.Errorf("fig3 one-way peak = %.1f, want ~80.4", owLast.Y)
	}
	if bdLast.Y < 87 || bdLast.Y > 95 {
		t.Errorf("fig3 bidirectional peak = %.1f, want ~91", bdLast.Y)
	}
	// Bidirectional total exceeds one-way but is less than twice it.
	if bdLast.Y <= owLast.Y || bdLast.Y >= 2*owLast.Y {
		t.Errorf("bidirectional total %.1f not in (one-way, 2x one-way) = (%.1f, %.1f)",
			bdLast.Y, owLast.Y, 2*owLast.Y)
	}
	// Bandwidth rises with message size.
	if oneway.Points[0].Y >= owLast.Y {
		t.Error("fig3 one-way curve not increasing")
	}
}

func TestFig4Shape(t *testing.T) {
	series, err := new(Run).Fig4SendOverhead()
	if err != nil {
		t.Fatal(err)
	}
	syncS, asyncS := series[0], series[1]
	sync := map[float64]float64{}
	for _, pt := range syncS.Points {
		sync[pt.X] = pt.Y
	}
	async := map[float64]float64{}
	for _, pt := range asyncS.Points {
		async[pt.X] = pt.Y
	}
	// Sync overhead ~3-4.5 us up to 128 B, grows slowly.
	if sync[4] < 2 || sync[4] > 4.5 {
		t.Errorf("sync overhead 4B = %.2f", sync[4])
	}
	if sync[128] < sync[4] {
		t.Error("sync overhead should grow with size in the short range")
	}
	// Significant jump past 128 B (host DMA on the critical path).
	if sync[192] < sync[128]+5 {
		t.Errorf("no overhead jump past threshold: %.1f -> %.1f", sync[128], sync[192])
	}
	if sync[4096] < 30 {
		t.Errorf("sync overhead at 4KB = %.1f us, should be host-DMA bound", sync[4096])
	}
	// Async short == sync short (same host code); async long < async
	// short (fixed-size descriptor, no data copied over the bus).
	if d := async[64] - sync[64]; d > 0.3 || d < -0.3 {
		t.Errorf("async (%.2f) and sync (%.2f) short overheads should match", async[64], sync[64])
	}
	if async[4096] >= async[64] {
		t.Errorf("async long (%.2f) should be below async short (%.2f)", async[4096], async[64])
	}
	// Async long stays flat: the library plus a fixed-size descriptor.
	if async[4096] > 3.5 {
		t.Errorf("async long overhead = %.2f us, want ~posting cost", async[4096])
	}
	if async[4096] != async[1024] {
		t.Errorf("async long overhead varies with size: %.2f vs %.2f", async[1024], async[4096])
	}
}

func TestHeadlineTable(t *testing.T) {
	tab, err := new(Run).Headline()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("headline rows = %d", len(tab.Rows))
	}
	out := tab.Format()
	if !strings.Contains(out, "9.8") {
		t.Error("headline table missing paper reference")
	}
}

func TestTableHardwareCosts(t *testing.T) {
	tab, err := new(Run).TableHardwareCosts()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Format()
	for _, want := range []string{"0.422", "0.121", "memory-mapped"} {
		if !strings.Contains(out, want) {
			t.Errorf("hardware cost table missing %q:\n%s", want, out)
		}
	}
}

func TestAblationPipelineShowsBenefit(t *testing.T) {
	tab, err := new(Run).AblationPipeline()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 (full pipeline) must beat row 2 (no overlap) clearly.
	var full, none float64
	if _, err := sscanMB(tab.Rows[0][1], &full); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanMB(tab.Rows[2][1], &none); err != nil {
		t.Fatal(err)
	}
	if full < none*1.2 {
		t.Errorf("pipelining benefit too small: %.1f vs %.1f", full, none)
	}
}

func sscanMB(s string, v *float64) (int, error) {
	var unit string
	n, err := fmtSscan(s, v, &unit)
	return n, err
}

func fmtSscan(s string, v *float64, unit *string) (int, error) {
	return fmt.Sscanf(s, "%f %s", v, unit)
}

func TestAblationTightLoop(t *testing.T) {
	tab, err := new(Run).AblationTightLoop()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationThresholdShowsOverheadCliff(t *testing.T) {
	tab, err := new(Run).AblationThreshold()
	if err != nil {
		t.Fatal(err)
	}
	// threshold=64: 128-byte messages go long -> much higher overhead
	// than with threshold=128; latency changes much less (§5.3).
	var o128at64, o128at128, l128at64, l128at128 float64
	if _, err := sscanMB(tab.Rows[0][2], &o128at64); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanMB(tab.Rows[1][2], &o128at128); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanMB(tab.Rows[0][3], &l128at64); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanMB(tab.Rows[1][3], &l128at128); err != nil {
		t.Fatal(err)
	}
	if o128at64 < o128at128*2 {
		t.Errorf("sync overhead at 128B should jump with threshold 64: %.1f vs %.1f", o128at64, o128at128)
	}
	// "Latency would not change much" — within a handful of us.
	if d := l128at64 - l128at128; d < -6 || d > 18 {
		t.Errorf("latency change too large: %.1f vs %.1f", l128at64, l128at128)
	}
}

func TestAblationTLBColdSlower(t *testing.T) {
	tab, err := new(Run).AblationTLB()
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm float64
	if _, err := sscanMB(tab.Rows[0][1], &cold); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanMB(tab.Rows[1][1], &warm); err != nil {
		t.Fatal(err)
	}
	if cold <= warm {
		t.Errorf("cold TLB (%f) not slower than warm (%f)", cold, warm)
	}
	if tab.Rows[1][2] != "0" {
		t.Errorf("warm send took refills: %s", tab.Rows[1][2])
	}
}

func TestAblationSendersLatencyGrows(t *testing.T) {
	tab, err := new(Run).AblationSenders()
	if err != nil {
		t.Fatal(err)
	}
	var one, five float64
	if _, err := sscanMB(tab.Rows[0][1], &one); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanMB(tab.Rows[len(tab.Rows)-1][1], &five); err != nil {
		t.Fatal(err)
	}
	if five <= one {
		t.Errorf("latency with 5 senders (%.2f) not above 1 sender (%.2f)", five, one)
	}
}
