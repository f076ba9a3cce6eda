package bench

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vmmc"
)

// These tests pin the headline reproduction targets. They are the
// contract between the hw profile and the paper's Section 5 results:
// if a model change moves them, calibration has drifted.

func TestCalibrationOneWordLatency(t *testing.T) {
	var lat float64
	err := new(Run).RunPair(vmmc.Options{}, 4096, func(p *sim.Proc, pr *Pair) error {
		var err error
		lat, err = pr.PingPongLatency(p, 4, 100)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one-word one-way latency = %.2f us (paper: 9.8)", lat)
	if lat < 9.3 || lat > 10.3 {
		t.Errorf("one-word latency = %.2f us, want 9.8 +/- 0.5", lat)
	}
}

func TestCalibrationPeakBandwidth(t *testing.T) {
	var bw float64
	err := new(Run).RunPair(vmmc.Options{}, 1<<20, func(p *sim.Proc, pr *Pair) error {
		var err error
		bw, err = pr.OneWayBandwidth(p, 1<<20, 20)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("peak one-way bandwidth = %.1f MB/s (paper: 80.4)", bw)
	if bw < 78.4 || bw > 82.0 {
		t.Errorf("peak bandwidth = %.1f MB/s, want 80.4 +/- 2 (98%% of the 82 MB/s limit)", bw)
	}
}

func TestCalibrationBidirectionalBandwidth(t *testing.T) {
	var bw float64
	err := new(Run).RunPair(vmmc.Options{}, 1<<20, func(p *sim.Proc, pr *Pair) error {
		var err error
		bw, err = pr.BidirectionalBandwidth(p, 1<<20, 10)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bidirectional total bandwidth = %.1f MB/s (paper: 91)", bw)
	if bw < 87 || bw > 95 {
		t.Errorf("bidirectional total = %.1f MB/s, want 91 +/- 4", bw)
	}
}

func TestCalibrationShortSendOverhead(t *testing.T) {
	var sync4, sync128, async4 float64
	err := new(Run).RunPair(vmmc.Options{}, 4096, func(p *sim.Proc, pr *Pair) error {
		var err error
		if sync4, err = pr.SendOverhead(p, 4, 50, true); err != nil {
			return err
		}
		if sync128, err = pr.SendOverhead(p, 128, 50, true); err != nil {
			return err
		}
		async4, err = pr.SendOverhead(p, 4, 50, false)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sync send overhead: 4B=%.2f us, 128B=%.2f us (paper: ~3, growing slowly)", sync4, sync128)
	t.Logf("async send overhead: 4B=%.2f us", async4)
	if sync4 < 2.0 || sync4 > 4.5 {
		t.Errorf("sync overhead (4B) = %.2f us, want ~3", sync4)
	}
	if sync128 < sync4 {
		t.Errorf("sync overhead should grow slowly with size: 4B=%.2f, 128B=%.2f", sync4, sync128)
	}
	if async4 > sync4 {
		t.Errorf("async overhead (%.2f) exceeds sync (%.2f) for short sends", async4, sync4)
	}
}
