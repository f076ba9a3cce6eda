package main

import (
	"reflect"
	"testing"
)

// TestSelfVirtByLayer checks self time by subtraction on a hand-built tree:
//
//	request [0,100] loadgen
//	├─ get      [10,70] replica
//	│  ├─ call  [15,40] rpc
//	│  │  └─ send [20,25] vmmc
//	│  └─ call  [35,60] rpc     (overlaps the first call by 5)
//	└─ late     [90,120] replica (runs past its parent: clipped to 100)
func TestSelfVirtByLayer(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "loadgen", VStart: 0, VEnd: 100},
		{ID: 2, Parent: 1, Layer: "replica", VStart: 10, VEnd: 70},
		{ID: 3, Parent: 2, Layer: "rpc", VStart: 15, VEnd: 40},
		{ID: 4, Parent: 3, Layer: "vmmc", VStart: 20, VEnd: 25},
		{ID: 5, Parent: 2, Layer: "rpc", VStart: 35, VEnd: 60},
		{ID: 6, Parent: 1, Layer: "replica", VStart: 90, VEnd: 120},
	}
	want := map[string]int64{
		"loadgen": 100 - 60 - 10,  // children cover [10,70] and [90,100]
		"replica": (60 - 45) + 30, // get minus the union [15,60]; late has no children
		"rpc":     (25 - 5) + 25,  // first call minus its send; second call whole
		"vmmc":    5,
	}
	if got := selfVirtByLayer(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 29, 16, 22})
	want := [3]float64{3.5, 13.5, 31.0}
	if got != want {
		t.Errorf("quartiles %v, want %v", got, want)
	}
}
