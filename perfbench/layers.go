package main

// Per-layer figures of a traced run. Every workload reports the same
// set, each measured on that workload's own grid and cache directory:
// figures its timed operations yield come from their spans, the rest
// from probes that call one layer at a time on the same data.

import (
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// layerTimes collects a traced run's samples.
type layerTimes struct {
	samples  map[string][]float64
	fixed    map[string]float64
	traced   []float64 // op ms, traced operations
	untraced []float64 // op ms, untraced operations
	unattr   []float64 // per traced op: share of its wall time no layer span covers
	counts   workload.CacheStats
	countOps int
	pg       *scenario.PortfolioGrid // the last traced grid operation's verdict
}

func newLayerTimes() *layerTimes {
	return &layerTimes{samples: map[string][]float64{}, fixed: map[string]float64{}}
}

func (lt *layerTimes) add(name string, v float64) { lt.samples[name] = append(lt.samples[name], v) }
func (lt *layerTimes) set(name string, v float64) { lt.fixed[name] = v }
func (lt *layerTimes) has(name string) bool {
	_, a := lt.samples[name]
	_, b := lt.fixed[name]
	return a || b
}

// get is a layer's figure: the fixed value, else its samples' median.
func (lt *layerTimes) get(name string) float64 {
	if v, ok := lt.fixed[name]; ok {
		return v
	}
	return quantile(lt.samples[name], 0.5)
}

// addOp books one grid operation.
func (lt *layerTimes) addOp(traced bool, op *gridOp) {
	if !traced {
		lt.untraced = append(lt.untraced, op.ms)
		return
	}
	lt.traced = append(lt.traced, op.ms)
	lt.add("op.get_ms", op.getMS)
	lt.add("scenario.decide_portfolio_ms", op.decideMS)
	lt.add("op.index_load_ms", float64(op.delta.IndexLoad.Nanoseconds())/1e6)
	lt.add("op.bytes_read_mb", float64(op.delta.BytesRead)/1e6)
	lt.pg = op.pg
	lt.unattr = append(lt.unattr, (op.ms-op.getMS-op.decideMS)/op.ms)
	lt.addCounts(op.delta)
}

func (lt *layerTimes) addCounts(d workload.CacheStats) {
	lt.counts.EngineRuns += d.EngineRuns
	lt.counts.LockWaits += d.LockWaits
	lt.counts.CellsFromSegment += d.CellsFromSegment
	lt.counts.CellsFromMemo += d.CellsFromMemo
	lt.countOps++
}

// layerUnits are the per-layer metrics every traced run reports.
var layerUnits = map[string]string{
	"tcpsim.simulate_ms":           "ms",
	"workload.memory_get_ms":       "ms",
	"workload.cold_get_ms":         "ms",
	"workload.persist_ms":          "ms",
	"workload.compact_ms":          "ms",
	"workload.cache_dir_mb":        "MB",
	"workload.open_ms":             "ms",
	"workload.index_load_ms":       "ms",
	"workload.bytes_read_mb":       "MB",
	"workload.engine_runs":         "count",
	"workload.lock_waits":          "count",
	"workload.segment_cells":       "count",
	"workload.memo_cells":          "count",
	"workload.cell_get_us":         "us",
	"scenario.decide_portfolio_ms": "ms",
	"core.decide_ns":               "ns",
	"scenario.archive_ms":          "ms",
	"scenario.lower_us":            "us",
	"scenario.decide_at_cell_us":   "us",
	"core.placement_us":            "us",
	"service.refresh_us":           "us",
	"service.decode_us":            "us",
	"service.encode_us":            "us",
	"service.decide_handler_us":    "us",
	"service.portfolio_handler_ms": "ms",
	"service.cold_handler_ms":      "ms",
	"service.transport_us":         "us",
	"trace.overhead_pct":           "%",
	"trace.unattributed_pct":       "%",
}

// metrics turns the samples into the per-layer metric set.
func (lt *layerTimes) metrics() map[string]metric {
	n := float64(lt.countOps)
	lt.set("workload.engine_runs", float64(lt.counts.EngineRuns)/n)
	lt.set("workload.lock_waits", float64(lt.counts.LockWaits)/n)
	lt.set("workload.segment_cells", float64(lt.counts.CellsFromSegment)/n)
	lt.set("workload.memo_cells", float64(lt.counts.CellsFromMemo)/n)
	lt.set("workload.persist_ms", lt.get("workload.cold_get_ms")-lt.get("workload.memory_get_ms"))
	tr, un := quantile(lt.traced, 0.5), quantile(lt.untraced, 0.5)
	lt.set("trace.overhead_pct", (tr-un)/un*100)
	lt.set("trace.unattributed_pct", quantile(lt.unattr, 0.5)*100)
	out := map[string]metric{}
	for name, unit := range layerUnits {
		out[name] = metric{lt.get(name), unit}
	}
	return out
}

// timeMS runs f once and returns its wall time in milliseconds.
func timeMS(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return since(start), err
}

// dirMB is the size of a cache directory's files, in MB.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / 1e6
}

// gridProbes measures the grid layers the timed operations did not:
// the simulator alone, the cold get with and without persistence,
// compaction and a warm open, on the workload's own grid. dir, when
// not "", already holds the grid; otherwise one is made and filled by a
// timed cold get. Layers the run already timed are not measured again.
func gridProbes(cfg *runConfig, lt *layerTimes, a workload.Axes, dir string) (string, error) {
	ms, err := timeMS(func() error { _, err := workload.RunGrid(a); return err })
	if err != nil {
		return "", err
	}
	lt.set("tcpsim.simulate_ms", ms)
	ms, err = timeMS(func() error { _, err := workload.NewGridCache().Get(a, 0); return err })
	if err != nil {
		return "", err
	}
	lt.set("workload.memory_get_ms", ms)
	if dir == "" {
		if dir, err = os.MkdirTemp(cfg.tmp, "probe-"); err != nil {
			return "", err
		}
		c := workload.NewGridCache()
		c.SetDiskDir(dir)
		ms, err = timeMS(func() error { _, err := c.Get(a, 0); return err })
		if err != nil {
			return "", err
		}
		if !lt.has("workload.cold_get_ms") {
			lt.set("workload.cold_get_ms", ms)
		}
	}
	if !lt.has("workload.compact_ms") {
		ms, err = timeMS(func() error { _, err := workload.CompactDiskCache(dir); return err })
		if err != nil {
			return "", err
		}
		lt.set("workload.compact_ms", ms)
	}
	lt.set("workload.cache_dir_mb", dirMB(dir))
	if !lt.has("workload.open_ms") {
		workload.ResetSegmentStores()
		c := workload.NewGridCache()
		c.SetDiskDir(dir)
		before := workload.ReadCacheStats()
		ms, err = timeMS(func() error { _, err := c.Get(a, 0); return err })
		if err != nil {
			return "", err
		}
		d := workload.ReadCacheStats().Since(before)
		lt.set("workload.open_ms", ms)
		lt.set("workload.index_load_ms", float64(d.IndexLoad.Nanoseconds())/1e6)
		lt.set("workload.bytes_read_mb", float64(d.BytesRead)/1e6)
	}
	return dir, nil
}

// coreDecideProbe times core.Decide per call over the decided grid's
// own parameters, in batches of 1000 calls.
func coreDecideProbe(lt *layerTimes, pg *scenario.PortfolioGrid, models []modelWorkload) {
	opts := make([]core.DecideOpts, len(models))
	for i, m := range models {
		opts[i] = core.DecideOpts{GenerationRate: units.ByteRate(m.Gen), Deadline: units.Seconds(m.Deadline)}
	}
	const batch = 1000
	n := 0
	for b := 0; b < 50; b++ {
		start := time.Now()
		for k := 0; k < batch; k++ {
			c := pg.Cells[n%len(pg.Cells)]
			j := n % len(c.Decisions)
			core.Decide(c.Decisions[j].Params, opts[j])
			n++
		}
		lt.add("core.decide_ns", float64(time.Since(start).Nanoseconds())/batch)
	}
}
