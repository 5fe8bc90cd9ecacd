package main

// The service_mixed workload: an in-process service.Server on loopback
// HTTP, driven by one closed-loop client over one keep-alive
// connection — the service's callers wait for each verdict before they
// send the next request.

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/workload"
)

// svcState is one set-up: a pre-warmed cache directory and a server
// over it.
type svcState struct {
	dir       string
	flat, hop *workload.GridResult
	coldGetMS float64
	lb        *loopback
}

// setupService pre-warms a fresh cache directory with the 20 000-cell
// grid and the 64-cell 3-hop grid, then starts a server on a fresh
// resident index.
func setupService(cfg *runConfig, tr *tracer) (*svcState, error) {
	flatAxes, err := warmAxes20k.spec().Axes()
	if err != nil {
		return nil, err
	}
	hopAxes, err := hopGridSpec().Axes()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "svc-")
	if err != nil {
		return nil, err
	}
	st := &svcState{dir: dir}
	c := workload.NewGridCache()
	c.SetDiskDir(dir)
	before := workload.ReadCacheStats()
	start := time.Now()
	if st.flat, err = c.Get(flatAxes, 0); err == nil {
		st.coldGetMS = since(start)
		err = checkCounts(workload.ReadCacheStats().Since(before), int64(len(st.flat.Rows)), 0)
	}
	if err == nil {
		// Hop cells whose composed link equals a flat cell's (40 Gbps
		// edge: the 25 Gbps ingress bottleneck, 13 ms and 23 ms paths)
		// are served from the segment; the rest simulate.
		before = workload.ReadCacheStats()
		if st.hop, err = c.Get(hopAxes, 0); err == nil {
			d := workload.ReadCacheStats().Since(before)
			if d.EngineRuns+d.CellsFromSegment != int64(len(st.hop.Rows)) || d.LockWaits != 0 {
				err = fmt.Errorf("hop grid: cache stats %v, want every cell simulated or read", d)
			}
		}
	}
	if err != nil {
		dropDir(dir)
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	workload.ResetSegmentStores()
	var h = service.New(service.Config{CacheDir: dir})
	if st.lb, err = startLoopback(tracedHandler{h, tr}); err != nil {
		dropDir(dir)
		return nil, err
	}
	return st, nil
}

func (st *svcState) close() {
	st.lb.stop()
	dropDir(st.dir)
}

// checkSetupRows checks Eq. 11 on every pre-warmed cell.
func checkSetupRows(st *svcState, v *verifier) error {
	for _, r := range st.flat.Rows {
		if err := checkSSS(r.SSS, r.Worst.Seconds(), float64(r.Cell.TransferSize), linkBits); err != nil {
			return fmt.Errorf("pre-warm cell %d: %w", r.Cell.Index, err)
		}
	}
	for _, r := range st.hop.Rows {
		hops, err := v.pathHops(cellCoord{edge: fmt.Sprintf("%gbps", float64(r.Cell.EdgeCap))})
		if err != nil {
			return err
		}
		if err := checkSSS(r.SSS, r.Worst.Seconds(), float64(r.Cell.TransferSize), hops[bottleneck(hops)].CapBits); err != nil {
			return fmt.Errorf("pre-warm hop cell %d: %w", r.Cell.Index, err)
		}
	}
	return nil
}

func runService(cfg *runConfig) (*report, error) {
	raw, models, err := loadPortfolioJSON(portfolioPath)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.tracer = tr
	}
	// Set-up three times; the last one serves the run.
	var st *svcState
	for i := 0; i < 3; i++ {
		start := time.Now()
		s, err := setupService(cfg, tr)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
		if i < 2 {
			s.close()
		} else {
			st = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			st.close()
		}
	}()
	v := &verifier{models: models, rows: map[cellKey]workload.GridRow{}, hops: baseHops()}
	indexRows(v.rows, st.flat.Rows)
	indexRows(v.rows, st.hop.Rows)
	if err := checkSetupRows(st, v); err != nil {
		rep.broken = err
	}

	// The request mix, in rounds of 100 requests shuffled by the seed:
	// 81 warm single-cell decides, 9 schema-v2 multi-hop decides, 8
	// portfolios over 100-cell warm sub-grids and 2 decides on cells
	// never seen before. Whole rounds keep every run's mix exact.
	round := make([]string, 0, 100)
	for kind, n := range map[string]int{"decide": 81, "decide_v2": 9, "portfolio": 8, "cold": 2} {
		for i := 0; i < n; i++ {
			round = append(round, kind)
		}
	}
	sort.Strings(round) // map order is random; the seed alone orders a round
	gn := &gen{rng: rand.New(rand.NewSource(cfg.seed)), raw: raw, axes: warmAxes20k, coldBase: 25000}
	decide, portfolio, cold := rep.class("decide"), rep.class("portfolio"), rep.class("cold")
	rep.primary = decide
	lt := newLayerTimes()
	before := workload.ReadCacheStats()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	n := 0
	for ; n%len(round) != 0 || n == 0 || time.Now().Before(deadline); n++ {
		if n%len(round) == 0 {
			gn.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		}
		var req request
		cls := decide
		switch round[n%len(round)] {
		case "decide":
			req = gn.decide()
		case "decide_v2":
			req = gn.decideV2()
		case "portfolio":
			req, cls = gn.portfolio(), portfolio
		default:
			req, cls = gn.coldDecide(), cold
		}
		traced := cfg.trace && n%2 == 0
		root := -1
		if traced {
			root = tr.begin("op", -1, int64(n))
		}
		start := time.Now()
		status, hdr, body, err := st.lb.post(req, root, int64(n))
		ms := since(start)
		if traced {
			tr.end(root)
		}
		if err == nil {
			err = v.check(req, status, hdr, body)
		}
		rep.record(cls, ms, err)
		if cfg.trace && err == nil && req.class == "decide" { // v1 decides, the requests the stage probes replay
			if traced {
				lt.traced = append(lt.traced, ms)
				lt.add("op.handler_ms", tr.durMS(root+1))
			} else {
				lt.untraced = append(lt.untraced, ms)
			}
		}
	}
	if !cfg.trace {
		return rep, nil
	}
	d := workload.ReadCacheStats().Since(before)
	lt.counts = d
	lt.countOps = n
	stopped = true
	st.lb.stop()
	return rep, serviceLayers(cfg, rep, lt, st, raw, models)
}

// serviceLayers fills the traced run's per-layer figures for the
// service workload: the grid layers on its 20 000-cell pre-warm grid,
// then the service probes on its cache directory.
func serviceLayers(cfg *runConfig, rep *report, lt *layerTimes, st *svcState, raw []workloadJSON, models []modelWorkload) error {
	defer dropDir(st.dir)
	lt.set("workload.cold_get_ms", st.coldGetMS)
	a := st.flat.Axes
	pf, err := scenario.LoadPortfolioFile(portfolioPath)
	if err != nil {
		return err
	}
	var pg *scenario.PortfolioGrid
	ms, err := timeMS(func() error { pg, err = scenario.DecidePortfolio(pf, st.flat); return err })
	if err != nil {
		return err
	}
	lt.set("scenario.decide_portfolio_ms", ms)
	if _, err := gridProbes(cfg, lt, a, st.dir); err != nil {
		return err
	}
	coreDecideProbe(lt, pg, models)
	if err := serviceProbes(cfg, rep, lt, st.dir, warmAxes20k, raw, models); err != nil {
		return err
	}
	// A traced request is its transport (round trip minus the server-side
	// handler span) plus the handler, which the probed stages account for;
	// what they leave of the handler span is unattributed.
	var transport []float64
	stagesMS := handlerStagesUS(lt) / 1e3
	for i, op := range lt.traced {
		handler := lt.samples["op.handler_ms"][i]
		transport = append(transport, (op-handler)*1e3)
		lt.unattr = append(lt.unattr, (handler-stagesMS)/op)
	}
	lt.set("service.transport_us", quantile(transport, 0.5))
	rep.layers = lt.metrics()
	return nil
}

// gridLayers fills the traced run's per-layer figures for a grid
// workload: its timed operations give the get (cold get or warm open)
// and decide spans, the probes the rest.
func gridLayers(cfg *runConfig, rep *report, in *gridInputs, lt *layerTimes, dir string) error {
	if dir == "" {
		lt.samples["workload.cold_get_ms"] = lt.samples["op.get_ms"]
	} else {
		lt.samples["workload.open_ms"] = lt.samples["op.get_ms"]
	}
	dir, err := gridProbes(cfg, lt, in.axes, dir)
	if err != nil {
		return err
	}
	coreDecideProbe(lt, lt.pg, in.models)
	if err := serviceProbes(cfg, rep, lt, dir, probeAxes, in.raw, in.models); err != nil {
		return err
	}
	rep.layers = lt.metrics()
	return nil
}
