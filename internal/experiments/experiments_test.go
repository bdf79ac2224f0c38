package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	tb, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 11 {
		t.Fatalf("Table 1 rows = %d, want 11", tb.Rows())
	}
	s := tb.String()
	for _, want := range []string{"incoming_message", "1024 x 8", "nft"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2(t *testing.T) {
	tb, total, err := Table2(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Fatalf("Table 2 rows = %d, want 4", tb.Rows())
	}
	// Paper: 2960 bits total; same order of magnitude required.
	if total < 296 || total > 29600 {
		t.Fatalf("Table 2 total bits = %d, want within 10x of 2960", total)
	}
}

func TestE3(t *testing.T) {
	tb, err := E3Registers()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 7 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// ROUTE_C register bits must grow monotonically with d.
	var prev int
	for r := 1; r < tb.Rows(); r++ {
		bits, err := strconv.Atoi(tb.Cell(r, 2))
		if err != nil {
			t.Fatal(err)
		}
		if r > 1 && bits <= prev {
			t.Fatalf("register bits not growing: row %d", r)
		}
		prev = bits
	}
}

func TestE4(t *testing.T) {
	tb, err := E4Steps()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Structural step counts are exact (paper Section 5).
	wantFF := map[string]string{"NARA": "1", "NAFTA": "1", "ROUTE_C": "2", "ROUTE_C-nft": "1"}
	wantWC := map[string]string{"NARA": "1", "NAFTA": "3", "ROUTE_C": "2", "ROUTE_C-nft": "1"}
	for r := 0; r < tb.Rows(); r++ {
		name := tb.Cell(r, 0)
		if tb.Cell(r, 1) != wantFF[name] || tb.Cell(r, 2) != wantWC[name] {
			t.Fatalf("%s steps: ff=%s wc=%s", name, tb.Cell(r, 1), tb.Cell(r, 2))
		}
	}
	// ROUTE_C's measured steps per hop must be near 2, the nft
	// variant near 1.
	for r := 0; r < tb.Rows(); r++ {
		v, err := strconv.ParseFloat(tb.Cell(r, 3), 64)
		if err != nil {
			t.Fatal(err)
		}
		switch tb.Cell(r, 0) {
		case "ROUTE_C":
			if v < 1.8 || v > 2.2 {
				t.Fatalf("ROUTE_C measured steps/hop = %v", v)
			}
		case "ROUTE_C-nft", "NARA":
			if v < 0.8 || v > 1.2 {
				t.Fatalf("%s measured steps/hop = %v", tb.Cell(r, 0), v)
			}
		}
	}
}

func TestE5(t *testing.T) {
	tb, err := E5Merged()
	if err != nil {
		t.Fatal(err)
	}
	// Merged entries grow exponentially; split stays near-flat.
	var splitFirst, splitLast, mergedFirst, mergedLast int
	splitFirst, _ = strconv.Atoi(tb.Cell(0, 1))
	splitLast, _ = strconv.Atoi(tb.Cell(tb.Rows()-1, 1))
	mergedFirst, _ = strconv.Atoi(tb.Cell(0, 3))
	mergedLast, _ = strconv.Atoi(tb.Cell(tb.Rows()-1, 3))
	if mergedLast < 32*mergedFirst {
		t.Fatalf("merged growth too small: %d -> %d", mergedFirst, mergedLast)
	}
	if splitLast > 8*splitFirst {
		t.Fatalf("split tables should stay near-flat: %d -> %d", splitFirst, splitLast)
	}
}

func TestE6(t *testing.T) {
	tb, err := E6FaultChain(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() < 4 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// The list-of-faults knowledge grows linearly with |F| while the
	// per-node state stays constant.
	bits0, _ := strconv.Atoi(tb.Cell(0, 5))
	bitsN, _ := strconv.Atoi(tb.Cell(tb.Rows()-1, 5))
	state0, _ := strconv.Atoi(tb.Cell(0, 6))
	stateN, _ := strconv.Atoi(tb.Cell(tb.Rows()-1, 6))
	if bitsN <= bits0 {
		t.Fatal("fault-list bits should grow with |F|")
	}
	if state0 != stateN {
		t.Fatal("per-node state must stay constant")
	}
	// Delivery stays high: the chain is convex (no blocks), NAFTA
	// should route around it.
	for r := 0; r < tb.Rows(); r++ {
		reach, _ := strconv.Atoi(tb.Cell(r, 1))
		del, _ := strconv.Atoi(tb.Cell(r, 2))
		if float64(del) < 0.95*float64(reach) {
			t.Fatalf("row %d: delivered %d of %d", r, del, reach)
		}
	}
}

func TestE7Quick(t *testing.T) {
	meshTb, cubeTb, err := E7LatencyVsLoad(true)
	if err != nil {
		t.Fatal(err)
	}
	if meshTb.Rows() != 12 || cubeTb.Rows() != 6 {
		t.Fatalf("rows: %d %d", meshTb.Rows(), cubeTb.Rows())
	}
	// On the adversarial transpose pattern the adaptive algorithms
	// must sustain more throughput than dimension-order XY at the
	// higher load.
	var xy, nara float64
	for r := 0; r < meshTb.Rows(); r++ {
		if meshTb.Cell(r, 1) == "transpose" && meshTb.Cell(r, 2) == "0.250" {
			v, _ := strconv.ParseFloat(meshTb.Cell(r, 4), 64)
			switch meshTb.Cell(r, 0) {
			case "xy":
				xy = v
			case "nara":
				nara = v
			}
		}
	}
	if nara <= xy {
		t.Fatalf("adaptive should beat oblivious on transpose: nara=%v xy=%v", nara, xy)
	}
}

func TestE8Quick(t *testing.T) {
	meshTb, cubeTb, err := E8Degradation(true)
	if err != nil {
		t.Fatal(err)
	}
	if meshTb.Rows() != 6 || cubeTb.Rows() != 4 {
		t.Fatalf("rows: %d %d", meshTb.Rows(), cubeTb.Rows())
	}
	// At 4 faults the fault-tolerant algorithm must keep a far higher
	// delivery ratio than oblivious XY.
	ratios := map[string]float64{}
	for r := 0; r < meshTb.Rows(); r++ {
		if meshTb.Cell(r, 1) == "4" {
			v, _ := strconv.ParseFloat(meshTb.Cell(r, 2), 64)
			ratios[meshTb.Cell(r, 0)] = v
		}
	}
	if ratios["nafta"] < 0.99 {
		t.Fatalf("NAFTA delivery at 4 faults = %v", ratios["nafta"])
	}
	if ratios["xy"] >= ratios["nafta"] {
		t.Fatalf("XY should degrade below NAFTA: %v vs %v", ratios["xy"], ratios["nafta"])
	}
}

func TestE9Quick(t *testing.T) {
	tb, err := E9DecisionTime(true)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 8 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Latency at low load rises with the decision time.
	var lat1, lat4 float64
	for r := 0; r < tb.Rows(); r++ {
		if tb.Cell(r, 1) == "0.050" {
			v, _ := strconv.ParseFloat(tb.Cell(r, 2), 64)
			if tb.Cell(r, 0) == "1" {
				lat1 = v
			}
			if tb.Cell(r, 0) == "4" {
				lat4 = v
			}
		}
	}
	if lat4 <= lat1 {
		t.Fatalf("latency should rise with decision time: %v vs %v", lat1, lat4)
	}
}

func TestE10Quick(t *testing.T) {
	tabs, err := E10Ablations(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	// Each structuring level must shrink (or at least not grow) the
	// decision tables: subbases+fields <= monolithic-with-fields <=
	// monolithic-features-only; the end-to-end win must be large.
	idxTb := tabs[2]
	for r := 0; r < idxTb.Rows(); r++ {
		sub, _ := strconv.Atoi(idxTb.Cell(r, 1))
		monoF, _ := strconv.Atoi(idxTb.Cell(r, 2))
		flat, _ := strconv.Atoi(idxTb.Cell(r, 3))
		if sub > monoF || monoF > flat {
			t.Fatalf("%s: structuring should monotonically shrink tables (%d, %d, %d)",
				idxTb.Cell(r, 0), sub, monoF, flat)
		}
		if flat < 8*sub {
			t.Fatalf("%s: end-to-end structuring win too small (%d vs %d)",
				idxTb.Cell(r, 0), sub, flat)
		}
	}
}

func TestE11Quick(t *testing.T) {
	tb, err := E11NegHop(true)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 5 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// Delivery grows with the VC budget, and NAFTA (last row) beats
	// every negative-hop configuration with only 2 VCs.
	var prev float64
	for r := 0; r < 4; r++ {
		v, _ := strconv.ParseFloat(tb.Cell(r, 3), 64)
		if r > 0 && v < prev-0.02 {
			t.Fatalf("delivery should not shrink with more VCs: row %d", r)
		}
		prev = v
	}
	// The quick table is one seed of 1000 measured cycles: another
	// random stream moves a row by about 0.005 (neghop16 read 0.987 and
	// 0.992 on the two generator streams), so the tolerance is 0.01.
	nafta, _ := strconv.ParseFloat(tb.Cell(4, 3), 64)
	best, _ := strconv.ParseFloat(tb.Cell(3, 3), 64)
	if nafta < best-0.01 {
		t.Fatalf("NAFTA (%v) should match or beat the best neghop (%v) within 0.01", nafta, best)
	}
}

func TestE12Quick(t *testing.T) {
	tb, err := E12Reconfiguration(true)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	// All algorithms keep delivering after the fault; NAFTA must not
	// deliver less than the table-based reconfigurers.
	naftaDel, _ := strconv.ParseFloat(tb.Cell(2, 4), 64)
	if naftaDel < 0.99 {
		t.Fatalf("NAFTA post-fault delivery %v", naftaDel)
	}
	// And its post-fault latency stays below the tree's.
	treeLat, _ := strconv.ParseFloat(tb.Cell(0, 3), 64)
	naftaLat, _ := strconv.ParseFloat(tb.Cell(2, 3), 64)
	if naftaLat >= treeLat {
		t.Fatalf("NAFTA after-fault latency %v should be below tree %v", naftaLat, treeLat)
	}
}

func TestE13Quick(t *testing.T) {
	tb, err := E13MarkedPriority(true)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	for r := 0; r < 2; r++ {
		del, _ := strconv.ParseFloat(tb.Cell(r, 4), 64)
		if del < 0.98 {
			t.Fatalf("row %d delivery %v", r, del)
		}
	}
}
