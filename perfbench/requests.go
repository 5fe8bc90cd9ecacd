package main

// Decision-service request bodies, written from the documented request
// vocabulary, and the checks every response must pass.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// cellJSON is a request grid: the base knobs plus the axis lists.
type cellJSON struct {
	DurationS int    `json:"duration_s"`
	Concs     string `json:"concs,omitempty"`
	Flows     string `json:"pflows,omitempty"`
	Sizes     string `json:"sizes,omitempty"`
	RTTs      string `json:"rtts,omitempty"`
	Buffers   string `json:"buffers,omitempty"`
	CCs       string `json:"ccs,omitempty"`
	Crosses   string `json:"crosses,omitempty"`
	Hops      string `json:"hops,omitempty"`
	EdgeCaps  string `json:"edge_caps,omitempty"`
	WANRTTs   string `json:"wan_rtts,omitempty"`
}

type decideJSON struct {
	Schema    string       `json:"schema,omitempty"`
	Workload  workloadJSON `json:"workload"`
	Cell      cellJSON     `json:"cell"`
	Prefilter float64      `json:"prefilter,omitempty"`
}

type portfolioJSON struct {
	Name      string   `json:"name"`
	Grid      cellJSON `json:"grid"`
	Portfolio struct {
		Workloads []workloadJSON `json:"workloads"`
	} `json:"portfolio"`
}

// decideRespJSON is the documented /v1/decide reply.
type decideRespJSON struct {
	Decision  string  `json:"decision"`
	Gain      float64 `json:"gain"`
	TLocalS   float64 `json:"t_local_s"`
	TPctS     float64 `json:"t_pct_s"`
	Placement string  `json:"placement"`
	Hops      []struct {
		Name        string  `json:"name"`
		RateBps     float64 `json:"rate_Bps"`
		Bottleneck  bool    `json:"bottleneck"`
		SustainedOK bool    `json:"sustained_ok"`
	} `json:"hops"`
	Measured *struct {
		WorstS  float64 `json:"worst_s"`
		SSS     float64 `json:"sss"`
		RateBps float64 `json:"rate_Bps"`
	} `json:"measured"`
	Cache *struct {
		Cells      int64 `json:"cells"`
		Memo       int64 `json:"memo"`
		Segment    int64 `json:"segment"`
		EngineRuns int64 `json:"engine_runs"`
	} `json:"cache"`
}

// portfolioRespJSON is the documented portfolio archive.
type portfolioRespJSON struct {
	Cells []struct {
		Index     int       `json:"index"`
		WorstS    float64   `json:"worst_s"`
		RateBps   float64   `json:"rate_Bps"`
		Decisions []string  `json:"decisions"`
		Gains     []float64 `json:"gains"`
	} `json:"cells"`
}

// axisVals splits an axis list.
func axisVals(s string) []string { return strings.Split(s, ",") }

// request is one generated request: its body, the cells it covers (in
// the documented grid order) and what its answer must show.
type request struct {
	class string // "decide", "decide_v2", "portfolio" or "cold"
	path  string
	body  []byte
	cells []cellCoord
	wl    int  // portfolio row of a decide request
	cold  bool // the cell was never computed: exactly one engine run
}

// cellCoord is a cell's coordinates as strings from the axis lists.
type cellCoord struct {
	size, rtt, buffer, cc, cross, conc, flows, edge, wan string
}

// key resolves coordinates to a cellKey through the program-independent
// parsers (sizes and rates by the model's unit tables).
func (c cellCoord) key() (cellKey, error) {
	var k cellKey
	var err error
	if k.size, err = parseQuantity(c.size, byteSuffix); err != nil {
		return k, err
	}
	if _, err = fmt.Sscan(c.conc, &k.conc); err != nil {
		return k, err
	}
	if _, err = fmt.Sscan(c.flows, &k.flows); err != nil {
		return k, err
	}
	if c.edge != "" {
		if k.edge, err = parseQuantity(c.edge, bitRateSuffix); err != nil {
			return k, err
		}
		k.wanRTT, err = time.ParseDuration(c.wan)
		return k, err
	}
	if k.rtt, err = time.ParseDuration(c.rtt); err != nil {
		return k, err
	}
	if c.buffer != "auto" {
		if k.buffer, err = parseQuantity(c.buffer, byteSuffix); err != nil {
			return k, err
		}
	}
	k.cc = c.cc
	_, err = fmt.Sscan(c.cross, &k.cross)
	return k, err
}

// axesLists are the axis lists a generator draws cells from.
type axesLists struct {
	sizes, rtts, buffers, ccs, crosses string
}

// warmAxes20k and warmAxes100k are the grid workloads' lists — 25 RTTs
// make 20 000 cells, 125 make the 100 000 cells of scripts/bigcheck.sh;
// probeAxes is the 400-cell grid the service probes pre-warm on the grid
// workloads, whose own grids run under other simulator seeds (one size,
// buffer and CC).
var (
	warmAxes20k  = axesLists{gridSizes, rttList(25), gridBuffers, gridCCs, gridCrosses}
	warmAxes100k = axesLists{gridSizes, rttList(125), gridBuffers, gridCCs, gridCrosses}
	probeAxes    = axesLists{"0.2GB", rttList(10), "2MB", "reno", gridCrosses}
)

func (l axesLists) spec() scenario.GridSpec {
	return scenario.GridSpec{DurationS: 1, AxesSpec: scenario.AxesSpec{Concs: gridConcs, Flows: gridFlows,
		Sizes: l.sizes, RTTs: l.rtts, Buffers: l.buffers, CCs: l.ccs, Crosses: l.crosses}}
}

// gen draws requests from a seeded source.
type gen struct {
	rng      *rand.Rand
	raw      []workloadJSON
	axes     axesLists
	cold     int // cold cells issued so far
	coldBase int // cold RTTs start here, in microseconds, beyond every warm RTT
}

func pick(r *rand.Rand, list string) string {
	v := axisVals(list)
	return v[r.Intn(len(v))]
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// decide draws a single-cell decision over the warm flat grid.
func (g *gen) decide() request {
	r, l := g.rng, g.axes
	c := cellCoord{size: pick(r, l.sizes), rtt: pick(r, l.rtts), buffer: pick(r, l.buffers),
		cc: pick(r, l.ccs), cross: pick(r, l.crosses), conc: pick(r, gridConcs), flows: pick(r, gridFlows)}
	wl := r.Intn(len(g.raw))
	body := decideJSON{Workload: g.raw[wl], Cell: cellJSON{DurationS: 1, Concs: c.conc, Flows: c.flows,
		Sizes: c.size, RTTs: c.rtt, Buffers: c.buffer, CCs: c.cc, Crosses: c.cross}}
	return request{class: "decide", path: "/v1/decide", body: mustJSON(body), cells: []cellCoord{c}, wl: wl}
}

// decideV2 draws a schema-v2 multi-hop decision over the warm hop grid.
func (g *gen) decideV2() request {
	r := g.rng
	c := cellCoord{size: hopSize, conc: pick(r, gridConcs), flows: pick(r, gridFlows),
		edge: pick(r, hopEdgeCaps), wan: pick(r, hopWANRTTs)}
	wl := r.Intn(len(g.raw))
	body := decideJSON{Schema: "v2", Workload: g.raw[wl], Prefilter: prefilter, Cell: cellJSON{DurationS: 1,
		Concs: c.conc, Flows: c.flows, Sizes: c.size, Hops: hopsSpec, EdgeCaps: c.edge, WANRTTs: c.wan}}
	return request{class: "decide_v2", path: "/v1/decide", body: mustJSON(body), cells: []cellCoord{c}, wl: wl}
}

// coldDecide draws a decision on a cell no grid holds: its RTT lies
// beyond the warm axis, one microsecond apart per request.
func (g *gen) coldDecide() request {
	r, l := g.rng, g.axes
	g.cold++
	c := cellCoord{size: pick(r, l.sizes), rtt: fmt.Sprintf("%dus", g.coldBase+g.cold), buffer: pick(r, l.buffers),
		cc: pick(r, l.ccs), cross: pick(r, l.crosses), conc: pick(r, gridConcs), flows: pick(r, gridFlows)}
	wl := r.Intn(len(g.raw))
	body := decideJSON{Workload: g.raw[wl], Cell: cellJSON{DurationS: 1, Concs: c.conc, Flows: c.flows,
		Sizes: c.size, RTTs: c.rtt, Buffers: c.buffer, CCs: c.cc, Crosses: c.cross}}
	return request{class: "cold", path: "/v1/decide", body: mustJSON(body), cells: []cellCoord{c}, wl: wl, cold: true}
}

// portfolio draws a 100-cell sub-grid of the warm grid: 2 conc × 2 P ×
// one size, buffer and CC × 5 consecutive RTTs × 5 consecutive cross
// fractions, decided for the whole portfolio.
func (g *gen) portfolio() request {
	r, l := g.rng, g.axes
	rtts, crosses := axisVals(l.rtts), axisVals(l.crosses)
	rs, cs := r.Intn(len(rtts)-4), r.Intn(len(crosses)-4)
	size, buffer, cc := pick(r, l.sizes), pick(r, l.buffers), pick(r, l.ccs)
	var body portfolioJSON
	body.Name = "portfolio"
	body.Portfolio.Workloads = g.raw
	body.Grid = cellJSON{DurationS: 1, Concs: gridConcs, Flows: gridFlows, Sizes: size,
		RTTs: strings.Join(rtts[rs:rs+5], ","), Buffers: buffer, CCs: cc,
		Crosses: strings.Join(crosses[cs:cs+5], ",")}
	req := request{class: "portfolio", path: "/v1/portfolio", body: mustJSON(body)}
	// Documented cell order: network axes outermost (RTT, then cross),
	// then the Table 2 plane with flow counts outer, concurrencies inner.
	for _, rtt := range rtts[rs : rs+5] {
		for _, x := range crosses[cs : cs+5] {
			for _, p := range axisVals(gridFlows) {
				for _, c := range axisVals(gridConcs) {
					req.cells = append(req.cells, cellCoord{size: size, rtt: rtt, buffer: buffer, cc: cc,
						cross: x, conc: c, flows: p})
				}
			}
		}
	}
	return req
}

// verifier checks responses against the model and the rows the run
// computed itself.
type verifier struct {
	models []modelWorkload
	rows   map[cellKey]workload.GridRow // warm cells, from the run's own set-up
	hops   []hopModel                   // the 3-hop path's base hops
}

// indexRows indexes grid rows by coordinates.
func indexRows(into map[cellKey]workload.GridRow, rows []workload.GridRow) {
	for _, r := range rows {
		into[keyOf(r.Cell)] = r
	}
}

// pathHops composes the hop chain for one multi-hop cell.
func (v *verifier) pathHops(c cellCoord) ([]hopModel, error) {
	edge, err := parseQuantity(c.edge, bitRateSuffix)
	if err != nil {
		return nil, err
	}
	hops := append([]hopModel(nil), v.hops...)
	hops[0].CapBits = edge
	for i := range hops {
		hops[i].Residual = hops[i].CapBits / 8 * (1 - hops[i].Cross)
	}
	return hops, nil
}

// check verifies one response body.
func (v *verifier) check(req request, status int, header string, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if req.class == "portfolio" {
		return v.checkPortfolio(req, header, body)
	}
	var resp decideRespJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Measured == nil || resp.Cache == nil {
		return fmt.Errorf("cell-mode reply without measured/cache fields")
	}
	c := req.cells[0]
	key, err := c.key()
	if err != nil {
		return err
	}
	worst := resp.Measured.WorstS
	if req.cold {
		if resp.Cache.EngineRuns != 1 || resp.Cache.Cells != 1 {
			return fmt.Errorf("cold cell: cache %+v, want exactly one engine run", *resp.Cache)
		}
	} else {
		if resp.Cache.EngineRuns != 0 || resp.Cache.Memo+resp.Cache.Segment != 1 {
			return fmt.Errorf("warm cell: cache %+v, want zero engine runs", *resp.Cache)
		}
		row, ok := v.rows[key]
		if !ok {
			return fmt.Errorf("warm cell %+v not in the set-up grid", c)
		}
		if row.Worst.Seconds() != worst {
			return fmt.Errorf("worst_s %v, set-up row %v", worst, row.Worst.Seconds())
		}
	}
	capBits := linkBits
	var hops []hopModel
	if req.class == "decide_v2" {
		if hops, err = v.pathHops(c); err != nil {
			return err
		}
		capBits = hops[bottleneck(hops)].CapBits
	}
	if err := checkSSS(resp.Measured.SSS, worst, key.size, capBits); err != nil {
		return err
	}
	rate := effectiveRate(key.size, worst, capBits)
	if !relClose(resp.Measured.RateBps, rate, 1e-12) {
		return fmt.Errorf("rate_Bps %v, model %v", resp.Measured.RateBps, rate)
	}
	m := v.models[req.wl]
	if err := checkVerdict(m.Name, resp.Decision, resp.Gain, resp.TLocalS, resp.TPctS, decideModel(m, rate)); err != nil {
		return err
	}
	if hops == nil {
		return nil
	}
	pm := placeModel(m, rate, hops, prefilter)
	if resp.Placement != pm.Placement && !pm.Tie {
		return fmt.Errorf("placement %s, model %s", resp.Placement, pm.Placement)
	}
	if len(resp.Hops) != len(hops) {
		return fmt.Errorf("%d hops reported, path has %d", len(resp.Hops), len(hops))
	}
	for i, h := range resp.Hops {
		if h.Name != hops[i].Name || !relClose(h.RateBps, hops[i].Residual, 1e-9) ||
			h.Bottleneck != (i == pm.Bottleneck) || h.SustainedOK != pm.Sustained[i] {
			return fmt.Errorf("hop %d: %+v, model %+v bottleneck=%t sustained=%t",
				i, h, hops[i], i == pm.Bottleneck, pm.Sustained[i])
		}
	}
	return nil
}

func (v *verifier) checkPortfolio(req request, header string, body []byte) error {
	if !strings.Contains(header, "engine-runs=0") {
		return fmt.Errorf("warm portfolio simulated: X-Cache-Stats %q", header)
	}
	var resp portfolioRespJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Cells) != len(req.cells) {
		return fmt.Errorf("%d cells, request covers %d", len(resp.Cells), len(req.cells))
	}
	for i, cell := range resp.Cells {
		key, err := req.cells[i].key()
		if err != nil {
			return err
		}
		row, ok := v.rows[key]
		if !ok {
			return fmt.Errorf("cell %d %+v not in the set-up grid", i, req.cells[i])
		}
		if cell.Index != i || cell.WorstS != row.Worst.Seconds() {
			return fmt.Errorf("cell %d: index %d worst_s %v, set-up row %v", i, cell.Index, cell.WorstS, row.Worst.Seconds())
		}
		if err := checkSSS(row.SSS, cell.WorstS, key.size, linkBits); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		rate := effectiveRate(key.size, cell.WorstS, linkBits)
		if !relClose(cell.RateBps, rate, 1e-12) {
			return fmt.Errorf("cell %d: rate_Bps %v, model %v", i, cell.RateBps, rate)
		}
		if len(cell.Decisions) != len(v.models) || len(cell.Gains) != len(v.models) {
			return fmt.Errorf("cell %d: %d decisions for %d workloads", i, len(cell.Decisions), len(v.models))
		}
		for j, m := range v.models {
			mv := decideModel(m, rate)
			if cell.Decisions[j] != mv.Choice && !mv.Tie || !relClose(cell.Gains[j], mv.Gain, 1e-6) {
				return fmt.Errorf("cell %d %s: %s gain %v, model %s gain %v",
					i, m.Name, cell.Decisions[j], cell.Gains[j], mv.Choice, mv.Gain)
			}
		}
	}
	return nil
}

// baseHops is the model's view of hopsSpec: name, capacity and cross
// fraction per hop (the edge capacity is swept per cell).
func baseHops() []hopModel {
	return []hopModel{{Name: "edge", CapBits: 10e9}, {Name: "wan", CapBits: 100e9, Cross: 0.3},
		{Name: "ingress", CapBits: 25e9}}
}
