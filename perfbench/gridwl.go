package main

// The two grid workloads. One operation is the whole path from a
// GridCache.Get call to a decided PortfolioGrid; the portfolio archive
// (WriteJSON) is left out because on 10^5 cells × 4 workloads it costs
// seconds and is measured separately (scenario.archive_ms).

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// gridInputs are what both grid workloads load once.
type gridInputs struct {
	axes   workload.Axes
	pf     *scenario.Portfolio
	models []modelWorkload
	raw    []workloadJSON
}

func loadGridInputs(l axesLists, seed int64) (*gridInputs, error) {
	a, err := seededAxes(l.spec(), seed)
	if err != nil {
		return nil, err
	}
	pf, err := scenario.LoadPortfolioFile(portfolioPath)
	if err != nil {
		return nil, err
	}
	raw, models, err := loadPortfolioJSON(portfolioPath)
	if err != nil {
		return nil, err
	}
	return &gridInputs{axes: a, pf: pf, models: models, raw: raw}, nil
}

// gridOp is one timed grid operation's outcome.
type gridOp struct {
	ms, getMS, decideMS float64
	pg                  *scenario.PortfolioGrid
	delta               workload.CacheStats
}

// runGridOp gets the grid through a new GridCache on dir and decides
// the portfolio over it, tracing the two calls when t is set.
func runGridOp(in *gridInputs, dir string, t *tracer, req int64) (*gridOp, error) {
	c := workload.NewGridCache()
	c.SetDiskDir(dir)
	before := workload.ReadCacheStats()
	op := t.begin("op", -1, req)
	start := time.Now()
	sg := t.begin("workload.get", op, req)
	g, err := c.Get(in.axes, 0)
	t.end(sg)
	getMS := since(start)
	if err != nil {
		return nil, err
	}
	sd := t.begin("scenario.decide_portfolio", op, req)
	dstart := time.Now()
	pg, err := scenario.DecidePortfolio(in.pf, g)
	decideMS := since(dstart)
	t.end(sd)
	ms := since(start)
	t.end(op)
	if err != nil {
		return nil, err
	}
	return &gridOp{ms: ms, getMS: getMS, decideMS: decideMS, pg: pg,
		delta: workload.ReadCacheStats().Since(before)}, nil
}

// dropDir releases the process's resident store for dir and removes it.
func dropDir(dir string) {
	workload.CloseDiskCache(dir)
	os.RemoveAll(dir)
}

// opLoop runs op until the run's time is spent (at least twice, so a
// traced run has a traced and an untraced operation), starting each
// operation on a collected heap (a fresh process has no garbage from
// the previous grid). On a traced run every other operation is traced,
// so the tracing overhead is measured within the run.
func opLoop(cfg *runConfig, op func(i int, traced bool) error) error {
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		runtime.GC()
		if err := op(i, cfg.trace && i%2 == 0); err != nil {
			return err
		}
	}
	return nil
}

func runGridCold(cfg *runConfig) (*report, error) {
	rep := &report{}
	in, err := loadGridInputs(warmAxes20k, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Set-up: three untimed cold repetitions; the first one's rows are
	// the reference every later repetition must reproduce.
	var ref []workload.GridRow
	for i := 0; i < 3; i++ {
		start := time.Now()
		dir, err := os.MkdirTemp(cfg.tmp, "setup-")
		if err != nil {
			return nil, err
		}
		op, err := runGridOp(in, dir, nil, 0)
		dropDir(dir)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
		if err := checkCounts(op.delta, int64(len(op.pg.Cells)), 0); err != nil {
			rep.broken = fmt.Errorf("set-up grid: %w", err)
		} else if err := checkPortfolioGrid(op.pg, in.models, ref); err != nil {
			rep.broken = fmt.Errorf("set-up grid: %w", err)
		}
		if ref == nil {
			ref = make([]workload.GridRow, len(op.pg.Cells))
			for k, c := range op.pg.Cells {
				ref[k] = c.Row
			}
		}
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.tracer = tr
	}
	cls := rep.class("grid")
	rep.primary = cls
	lt := newLayerTimes()
	err = opLoop(cfg, func(i int, traced bool) error {
		dir, err := os.MkdirTemp(cfg.tmp, "op-")
		if err != nil {
			return err
		}
		defer dropDir(dir)
		t := tr
		if !traced {
			t = nil
		}
		op, err := runGridOp(in, dir, t, int64(i))
		if err != nil {
			rep.record(cls, 0, err)
			return nil
		}
		if err = checkCounts(op.delta, int64(len(ref)), 0); err == nil {
			err = checkPortfolioGrid(op.pg, in.models, ref)
		}
		rep.record(cls, op.ms, err)
		lt.addOp(traced, op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return rep, gridLayers(cfg, rep, in, lt, "")
	}
	return rep, nil
}

func runGridWarm(cfg *runConfig) (*report, error) {
	rep := &report{}
	in, err := loadGridInputs(warmAxes100k, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Set-up: seed the grid cold into a fresh directory and compact it,
	// twice (about 20 s each on a disk-backed filesystem); the second
	// directory serves the run, and its rows must repeat the first's.
	var dir string
	var ref []workload.GridRow
	var coldGetMS, compactMS float64
	for i := 0; i < 2; i++ {
		runtime.GC() // the peak RSS must not depend on when the last set-up's garbage is collected
		start := time.Now()
		d, err := os.MkdirTemp(cfg.tmp, "warm-")
		if err != nil {
			return nil, err
		}
		if dir != "" {
			dropDir(dir)
		}
		dir = d
		seed, err := runGridOp(in, dir, nil, 0)
		if err != nil {
			dropDir(dir)
			return nil, err
		}
		cstart := time.Now()
		cs, err := workload.CompactDiskCache(dir)
		if err != nil {
			dropDir(dir)
			return nil, err
		}
		compactMS = since(cstart)
		coldGetMS = seed.getMS
		rep.setups = append(rep.setups, time.Since(start).Seconds())
		err = checkCounts(seed.delta, int64(len(seed.pg.Cells)), 0)
		if err == nil {
			err = checkPortfolioGrid(seed.pg, in.models, ref)
		}
		if err == nil && cs.Records != len(seed.pg.Cells) {
			err = fmt.Errorf("compaction kept %d records, want %d", cs.Records, len(seed.pg.Cells))
		}
		if err != nil {
			rep.broken = fmt.Errorf("set-up grid: %w", err)
		}
		if ref == nil {
			ref = make([]workload.GridRow, len(seed.pg.Cells))
			for k, c := range seed.pg.Cells {
				ref[k] = c.Row
			}
		}
	}
	defer dropDir(dir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.tracer = tr
	}
	cls := rep.class("grid")
	rep.primary = cls
	lt := newLayerTimes()
	err = opLoop(cfg, func(i int, traced bool) error {
		// A fresh-process warm open: no resident index, no memo.
		workload.ResetSegmentStores()
		t := tr
		if !traced {
			t = nil
		}
		op, err := runGridOp(in, dir, t, int64(i))
		if err != nil {
			rep.record(cls, 0, err)
			return nil
		}
		if err = checkCounts(op.delta, 0, int64(len(ref))); err == nil {
			err = checkPortfolioGrid(op.pg, in.models, ref)
		}
		rep.record(cls, op.ms, err)
		lt.addOp(traced, op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		lt.set("workload.cold_get_ms", coldGetMS)
		lt.set("workload.compact_ms", compactMS)
		lt.samples["workload.index_load_ms"] = lt.samples["op.index_load_ms"]
		lt.samples["workload.bytes_read_mb"] = lt.samples["op.bytes_read_mb"]
		return rep, gridLayers(cfg, rep, in, lt, dir)
	}
	return rep, nil
}
