package main

// The benchmark's inputs: the grids, described in the request
// vocabulary (scenario.GridSpec) so a service request for one of their
// cells lowers to the very cell the grid stored, and the checks every
// decided grid must pass.

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// The shared grid axes: 2 conc × 2 P × 2 sizes × N RTTs × 5 buffers ×
// 2 CCs × 10 cross fractions — cheap 1 s cells, so the grid layers
// (store, open, decide) and not the simulator dominate.
const (
	gridConcs   = "1,2"
	gridFlows   = "1,2"
	gridSizes   = "0.1GB,0.2GB"
	gridBuffers = "auto,512KB,1MB,2MB,4MB"
	gridCCs     = "reno,cubic"
	gridCrosses = "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45"
	// linkBits is the request vocabulary's default link (25 Gbps).
	linkBits = 25e9
)

// rttList is "1ms,2ms,…,Nms".
func rttList(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("%dms", i+1)
	}
	return strings.Join(parts, ",")
}

// The 3-hop path the multi-hop requests use, with its swept hop axes.
const (
	hopsSpec    = "edge:10Gbps:2ms:1MB,wan:100Gbps:30ms:8MB:0.3,ingress:25Gbps:1ms"
	hopEdgeCaps = "5Gbps,10Gbps,20Gbps,40Gbps"
	hopWANRTTs  = "10ms,20ms,40ms,80ms"
	hopSize     = "0.1GB"
	prefilter   = 0.1
)

// hopGridSpec is the small multi-hop grid (4 edge caps × 4 WAN RTTs ×
// 2 conc × 2 P = 64 cells).
func hopGridSpec() scenario.GridSpec {
	return scenario.GridSpec{DurationS: 1, AxesSpec: scenario.AxesSpec{
		Concs: gridConcs, Flows: gridFlows, Sizes: hopSize,
		Hops: hopsSpec, EdgeCaps: hopEdgeCaps, WANRTTs: hopWANRTTs,
	}}
}

// seededAxes lowers a spec and, for the grid workloads, moves the
// simulator's base seed with the benchmark seed: other random draws,
// the same amount of work.
func seededAxes(spec scenario.GridSpec, seed int64) (workload.Axes, error) {
	a, err := spec.Axes()
	if err != nil {
		return a, err
	}
	a.Net.Seed += seed * 7919
	return a, nil
}

// cellKey identifies a cell by its coordinates, independent of which
// grid it was computed in.
type cellKey struct {
	size, cross  float64
	rtt, wanRTT  time.Duration
	buffer, edge float64
	cc           string
	conc, flows  int
}

func keyOf(c workload.GridCell) cellKey {
	k := cellKey{size: float64(c.TransferSize), conc: c.Concurrency, flows: c.ParallelFlows}
	if c.EdgeCap > 0 {
		// A multi-hop cell is named by its hop-axis coordinates.
		k.edge, k.wanRTT = float64(c.EdgeCap), c.WANRTT
		return k
	}
	k.cross, k.rtt, k.buffer, k.cc = c.CrossFraction, c.RTT, float64(c.Buffer), c.CC.String()
	return k
}

// sameRow reports whether two rows are bit-identical.
func sameRow(a, b workload.GridRow) bool {
	bits := math.Float64bits
	if a.Cell != b.Cell || a.Concurrency != b.Concurrency || a.ParallelFlows != b.ParallelFlows ||
		bits(a.OfferedLoad) != bits(b.OfferedLoad) || bits(a.Utilization) != bits(b.Utilization) ||
		a.Worst != b.Worst || a.P50 != b.P50 || a.P90 != b.P90 || a.P99 != b.P99 ||
		bits(a.SSS) != bits(b.SSS) || len(a.TransferTimes) != len(b.TransferTimes) ||
		(a.Result == nil) != (b.Result == nil) {
		return false
	}
	for i := range a.TransferTimes {
		if bits(a.TransferTimes[i]) != bits(b.TransferTimes[i]) {
			return false
		}
	}
	return true
}

// checkSSS checks Eq. 11 on a measured cell: SSS = worst / (size/link)
// and SSS >= 1 (no transfer beats the raw link).
func checkSSS(sss, worst, sizeBytes, capBits float64) error {
	want := worst / theoretical(sizeBytes, capBits)
	if !relClose(sss, want, 1e-6) {
		return fmt.Errorf("SSS %v, model worst/(size/link) = %v", sss, want)
	}
	if sss < 1 {
		return fmt.Errorf("SSS %v < 1", sss)
	}
	return nil
}

// checkVerdict compares one program decision with the model's.
func checkVerdict(name, choice string, gain, tLocal, tPct float64, v verdict) error {
	if choice != v.Choice && !v.Tie {
		return fmt.Errorf("%s: decision %s, model %s (T_local %v, T_pct %v)", name, choice, v.Choice, v.TLocal, v.TPct)
	}
	if !near(tLocal, v.TLocal) || !near(tPct, v.TPct) {
		return fmt.Errorf("%s: T_local %v T_pct %v, model %v %v", name, tLocal, tPct, v.TLocal, v.TPct)
	}
	if !relClose(gain, v.Gain, 1e-6) {
		return fmt.Errorf("%s: gain %v, model %v", name, gain, v.Gain)
	}
	return nil
}

// checkPortfolioGrid checks every cell and every decision of a decided
// flat grid against the model. ref, when non-nil, holds the rows the
// grid must reproduce bit for bit (the run's own cold set-up).
func checkPortfolioGrid(pg *scenario.PortfolioGrid, models []modelWorkload, ref []workload.GridRow) error {
	if len(pg.Cells) == 0 {
		return fmt.Errorf("empty decided grid")
	}
	if ref != nil && len(ref) != len(pg.Cells) {
		return fmt.Errorf("%d cells, set-up had %d", len(pg.Cells), len(ref))
	}
	for i, c := range pg.Cells {
		row := c.Row
		if ref != nil && !sameRow(row, ref[i]) {
			return fmt.Errorf("cell %d: row differs from the set-up's cold row", i)
		}
		size, worst := float64(row.Cell.TransferSize), row.Worst.Seconds()
		if err := checkSSS(row.SSS, worst, size, linkBits); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		rate := effectiveRate(size, worst, linkBits)
		if !relClose(float64(c.Rate), rate, 1e-12) {
			return fmt.Errorf("cell %d: rate %v, model %v", i, float64(c.Rate), rate)
		}
		if len(c.Decisions) != len(models) {
			return fmt.Errorf("cell %d: %d decisions for %d workloads", i, len(c.Decisions), len(models))
		}
		for j, d := range c.Decisions {
			b, m := d.Decision.Breakdown, models[j]
			v := decideModel(m, rate)
			if err := checkVerdict(m.Name, d.Decision.Choice.String(), d.Decision.Gain,
				b.TLocal.Seconds(), b.TPct.Seconds(), v); err != nil {
				return fmt.Errorf("cell %d: %w", i, err)
			}
			// Eq. 5–8 term by term, and the two constraint flags.
			if !near(b.TTransfer.Seconds(), v.TTransfer) || !near(b.TRemote.Seconds(), v.TRemote) ||
				!near(b.TIO.Seconds(), (m.Theta-1)*v.TTransfer) {
				return fmt.Errorf("cell %d: %s: breakdown %v, model transfer %v remote %v", i, m.Name, b, v.TTransfer, v.TRemote)
			}
			if !v.Tie && (d.Decision.SustainedOK != v.SustainedOK || d.Decision.DeadlineOK != v.DeadlineOK) {
				return fmt.Errorf("cell %d: %s: sustained/deadline %t/%t, model %t/%t", i, m.Name,
					d.Decision.SustainedOK, d.Decision.DeadlineOK, v.SustainedOK, v.DeadlineOK)
			}
		}
	}
	return nil
}

// checkCounts checks a grid request's exact cache attribution.
func checkCounts(d workload.CacheStats, engine, segment int64) error {
	if d.EngineRuns != engine || d.CellsFromSegment != segment || d.LockWaits != 0 {
		return fmt.Errorf("cache stats %v, want engine-runs=%d segment=%d lock-waits=0", d, engine, segment)
	}
	return nil
}
