package main

import (
	"math"
	"testing"
)

// xpcs is the paper's XPCS row (§5): 2 GB units at 17 TFLOP/GB, 5 TF
// local against 100 TF remote, Tier 2.
var xpcs = workloadJSON{Name: "XPCS", UnitSize: "2GB", ComplexityFLOPPerGB: 17e12, Local: "5TF", Remote: "100TF", Tier: 2}

func TestModelXPCSHandValues(t *testing.T) {
	m, err := xpcs.model()
	if err != nil {
		t.Fatal(err)
	}
	v := decideModel(m, 2e9) // 2 GB/s
	// T_local = 17e12·2 / 5e12 = 6.8 s; T_pct = 2/2 + 17e12·2/100e12 = 1.34 s.
	if math.Abs(v.TLocal-6.8) > 1e-12 || math.Abs(v.TPct-1.34) > 1e-12 {
		t.Fatalf("T_local %v T_pct %v, want 6.8 and 1.34", v.TLocal, v.TPct)
	}
	if v.Choice != "remote" || !v.DeadlineOK || v.Tie {
		t.Fatalf("verdict %+v, want remote within Tier 2", v)
	}
	// §4.1: 0.5 GB over 25 Gbps takes 0.16 s; a 0.32 s worst case is SSS 2.
	if th := theoretical(0.5e9, 25e9); math.Abs(th-0.16) > 1e-15 {
		t.Fatalf("theoretical %v, want 0.16", th)
	}
	if err := checkSSS(2, 0.32, 0.5e9, 25e9); err != nil {
		t.Fatal(err)
	}
}

func TestModelFileStagingOverhead(t *testing.T) {
	// TomoBank, θ = 1.3 at 2.5 GB/s: T_transfer = 12/2.5 = 4.8 s,
	// T_pct = 1.3·4.8 + 24e12/200e12 = 6.36 s against T_local 1.2 s.
	m, err := workloadJSON{Name: "TomoBank", UnitSize: "12GB", ComplexityFLOPPerGB: 2e12, Local: "20TF",
		Remote: "200TF", Theta: 1.3}.model()
	if err != nil {
		t.Fatal(err)
	}
	v := decideModel(m, 2.5e9)
	if math.Abs(v.TPct-6.36) > 1e-12 || math.Abs(v.TLocal-1.2) > 1e-12 || v.Choice != "local" {
		t.Fatalf("verdict %+v, want T_pct 6.36 s, T_local 1.2 s, local", v)
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	m, _ := xpcs.model()
	v := decideModel(m, 2e9)
	if err := checkVerdict("XPCS", "local", v.Gain, v.TLocal, v.TPct, v); err == nil {
		t.Error("a flipped decision passed the check")
	}
	if err := checkVerdict("XPCS", "remote", v.Gain*1.001, v.TLocal, v.TPct, v); err == nil {
		t.Error("a wrong gain passed the check")
	}
	if err := checkVerdict("XPCS", "remote", v.Gain, v.TLocal, v.TPct+1e-6, v); err == nil {
		t.Error("a wrong T_pct passed the check")
	}
	if err := checkSSS(0.9, 0.144, 0.5e9, 25e9); err == nil {
		t.Error("an SSS below 1 passed the check")
	}
	if err := checkSSS(2.1, 0.32, 0.5e9, 25e9); err == nil {
		t.Error("an SSS that is not worst/(size/link) passed the check")
	}
}

func TestModelRules(t *testing.T) {
	// HLT: 4 GB/s generation over a 3 GB/s stream is not sustainable;
	// local (0.5 GB · 8 TFLOP/GB / 10 TF = 0.4 s) meets Tier 1.
	hlt, err := workloadJSON{Name: "HLT", UnitSize: "0.5GB", ComplexityFLOPPerGB: 8e12, Local: "10TF",
		Remote: "400TF", GenerationRate: "4GB/s", Tier: 1}.model()
	if err != nil {
		t.Fatal(err)
	}
	if v := decideModel(hlt, 3e9); v.Choice != "local" || v.SustainedOK {
		t.Fatalf("HLT at 3 GB/s: %+v, want local with the sustained rule failing", v)
	}
	// A 0.1 s deadline is missed by both paths.
	tight := hlt
	tight.Deadline, tight.Gen = 0.1, 0
	if v := decideModel(tight, 3e9); v.Choice != "infeasible" || v.DeadlineOK {
		t.Fatalf("HLT with a 0.1 s deadline: %+v, want infeasible", v)
	}
	// Placement: a 5 Gbps edge cannot carry 4 GB/s, so no prefilter
	// is possible and the verdict is store-and-forward; the edge is the
	// bottleneck (0.625 GB/s against 8.75 and 3.125 GB/s).
	hops := baseHops()
	hops[0].CapBits = 5e9
	for i := range hops {
		hops[i].Residual = hops[i].CapBits / 8 * (1 - hops[i].Cross)
	}
	pm := placeModel(hlt, 0.5e9, hops, prefilter)
	if pm.Placement != "store-forward" || pm.Bottleneck != 0 || pm.Sustained[0] {
		t.Fatalf("HLT placement %+v, want store-forward at an edge bottleneck", pm)
	}
}

func TestParseQuantity(t *testing.T) {
	for _, c := range []struct {
		in    string
		table map[string]float64
		want  float64
	}{
		{"0.5GB", byteSuffix, 0.5e9}, {"512KB", byteSuffix, 512e3}, {"25Gbps", bitRateSuffix, 25e9},
		{"2.5GB/s", byteRateSuffix, 2.5e9}, {"100TF", flopsSuffix, 1e14}, {"0.10 GB", byteSuffix, 1e8},
	} {
		got, err := parseQuantity(c.in, c.table)
		if err != nil || math.Abs(got-c.want) > 1e-6*c.want {
			t.Errorf("parseQuantity(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := parseQuantity("2GB", bitRateSuffix); err == nil {
		t.Error("a byte size parsed as a bit rate")
	}
}
