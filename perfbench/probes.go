package main

// The service-layer probes of a traced run: request bodies drawn like
// the service workload's, sent through each stage of a decision
// request one call at a time (decode → lower → refresh → cell lookup →
// decide → encode), through Server.ServeHTTP with an in-memory recorder,
// and over loopback HTTP, against the workload's own cache directory.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/units"
	"repro/internal/workload"
)

// tracedHandler records a server-side span around each request that
// carries the benchmark's span headers.
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	if err != nil || th.t == nil {
		th.h.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	id := th.t.begin("service.handler", parent, req)
	th.h.ServeHTTP(w, r)
	th.t.end(id)
}

// loopback is an HTTP server on 127.0.0.1 and one keep-alive client.
type loopback struct {
	url    string
	srv    *http.Server
	done   chan struct{}
	client *http.Client
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true}}}
	go func() {
		lb.srv.Serve(ln)
		close(lb.done)
	}()
	resp, err := lb.client.Get(lb.url + "/healthz")
	if err != nil {
		lb.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return lb, nil
}

// stop closes the server and waits for its serve loop to return.
func (lb *loopback) stop() {
	lb.client.CloseIdleConnections()
	lb.srv.Shutdown(context.Background())
	<-lb.done
}

// post sends one request; span >= 0 asks the traced handler to record
// the server side under that parent.
func (lb *loopback) post(req request, span int, id int64) (status int, cacheHdr string, body []byte, err error) {
	hr, err := http.NewRequest(http.MethodPost, lb.url+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, "", nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		hr.Header.Set("X-Bench-Span", strconv.Itoa(span))
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(id, 10))
	}
	resp, err := lb.client.Do(hr)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache-Stats"), body, err
}

// serveRecorded runs one request through the handler in memory.
func serveRecorded(h http.Handler, req request) (*httptest.ResponseRecorder, float64) {
	hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, hr)
	return rec, since(start)
}

// usSince is microseconds since t.
func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// serviceProbes measures the service layers on dir, with requests drawn
// over axes (computed into dir first when they are not there yet).
// Every probe response is checked like a workload response; failures
// are booked in the "probe" class.
func serviceProbes(cfg *runConfig, rep *report, lt *layerTimes, dir string, axes axesLists, raw []workloadJSON, models []modelWorkload) error {
	spec := axes.spec()
	a, err := spec.Axes()
	if err != nil {
		return err
	}
	c := workload.NewGridCache()
	c.SetDiskDir(dir)
	g, err := c.Get(a, 0)
	if err != nil {
		return err
	}
	v := &verifier{models: models, rows: map[cellKey]workload.GridRow{}, hops: baseHops()}
	indexRows(v.rows, g.Rows)
	gn := &gen{rng: rand.New(rand.NewSource(cfg.seed + 1)), raw: raw, axes: axes, coldBase: 200000}

	workload.ResetSegmentStores() // the server starts on a fresh resident index
	srv := service.New(service.Config{CacheDir: dir})
	tr := rep.tracer
	lb, err := startLoopback(tracedHandler{srv, tr})
	if err != nil {
		return err
	}
	defer lb.stop()
	cls := rep.class("probe")
	stage := workload.NewGridCache()
	stage.SetDiskDir(dir)

	for i := 0; i < 300; i++ {
		req := gn.decide()
		t := time.Now()
		var dr scenario.DecideRequest
		dec := json.NewDecoder(bytes.NewReader(req.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&dr); err != nil {
			return err
		}
		lt.add("service.decode_us", usSince(t))
		t = time.Now()
		wl, axes, err := dr.Lower()
		if err != nil {
			return err
		}
		lt.add("scenario.lower_us", usSince(t))
		t = time.Now()
		workload.RefreshDiskCache(dir)
		lt.add("service.refresh_us", usSince(t))
		t = time.Now()
		g1, _, err := stage.GetStats(*axes, 0)
		if err != nil {
			return err
		}
		lt.add("workload.cell_get_us", usSince(t))
		t = time.Now()
		resp, err := scenario.DecideAtCell(wl, g1, dr.Prefilter)
		if err != nil {
			return err
		}
		lt.add("scenario.decide_at_cell_us", usSince(t))
		t = time.Now()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return err
		}
		lt.add("service.encode_us", usSince(t))

		rec, ms := serveRecorded(srv, req)
		lt.add("service.decide_handler_us", ms*1e3)
		rep.record(cls, ms, v.check(req, rec.Code, rec.Header().Get("X-Cache-Stats"), rec.Body.Bytes()))

		root := tr.begin("probe.request", -1, int64(i))
		start := time.Now()
		status, hdr, body, err := lb.post(req, root, int64(i))
		total := since(start)
		tr.end(root)
		if err == nil {
			err = v.check(req, status, hdr, body)
		}
		rep.record(cls, total, err)
		if err == nil {
			// The handler span is the one recorded right after root.
			lt.add("service.transport_us", (total-tr.durMS(root+1))*1e3)
		}
	}

	seen := map[string]bool{}
	var pg *scenario.PortfolioGrid
	for len(seen) < 12 {
		req := gn.portfolio()
		if seen[string(req.body)] {
			continue
		}
		seen[string(req.body)] = true
		rec, ms := serveRecorded(srv, req)
		lt.add("service.portfolio_handler_ms", ms)
		rep.record(cls, ms, v.check(req, rec.Code, rec.Header().Get("X-Cache-Stats"), rec.Body.Bytes()))
		var pr scenario.PortfolioRequest
		if err := json.Unmarshal(req.body, &pr); err != nil {
			return err
		}
		pf, axes, err := pr.Lower()
		if err != nil {
			return err
		}
		gp, err := stage.Get(axes, 0)
		if err != nil {
			return err
		}
		if pg, err = scenario.DecidePortfolio(pf, gp); err != nil {
			return err
		}
		var buf bytes.Buffer
		ms, err = timeMS(func() error { return pg.WriteJSON(&buf) })
		if err != nil {
			return err
		}
		lt.add("scenario.archive_ms", ms)
	}

	for i := 0; i < 8; i++ {
		req := gn.coldDecide()
		rec, ms := serveRecorded(srv, req)
		lt.add("service.cold_handler_ms", ms)
		rep.record(cls, ms, v.check(req, rec.Code, rec.Header().Get("X-Cache-Stats"), rec.Body.Bytes()))
	}

	placementProbe(lt, pg, models)
	handler, staged := lt.get("service.decide_handler_us"), handlerStagesUS(lt)
	fmt.Printf("layers: decide handler p50 %.1fus, its stages sum to %.1fus (%.0f%%)\n",
		handler, staged, staged/handler*100)
	return nil
}

// handlerStagesUS sums the medians of a decide request's six probed
// stages, in microseconds.
func handlerStagesUS(lt *layerTimes) float64 {
	var us float64
	for _, s := range []string{"service.decode_us", "scenario.lower_us", "service.refresh_us",
		"workload.cell_get_us", "scenario.decide_at_cell_us", "service.encode_us"} {
		us += lt.get(s)
	}
	return us
}

// placementProbe times core.DecidePlacement per call on the 3-hop path
// over decided parameters, in batches of 100 calls.
func placementProbe(lt *layerTimes, pg *scenario.PortfolioGrid, models []modelWorkload) {
	caps := axisVals(hopEdgeCaps)
	hops := make([][]core.HopParams, len(caps))
	for i, capStr := range caps {
		edge, _ := parseQuantity(capStr, bitRateSuffix)
		for _, h := range baseHops() {
			if h.Name == "edge" {
				h.CapBits = edge
			}
			hops[i] = append(hops[i], core.HopParams{Name: h.Name, Capacity: units.BitRate(h.CapBits),
				RTT: 10 * time.Millisecond, CrossFraction: h.Cross})
		}
	}
	opts := make([]core.PlacementOpts, len(models))
	for i, m := range models {
		opts[i] = core.PlacementOpts{PrefilterFactor: prefilter, DecideOpts: core.DecideOpts{
			GenerationRate: units.ByteRate(m.Gen), Deadline: units.Seconds(m.Deadline)}}
	}
	const batch = 100
	n := 0
	for b := 0; b < 30; b++ {
		start := time.Now()
		for k := 0; k < batch; k++ {
			c := pg.Cells[n%len(pg.Cells)]
			j := n % len(c.Decisions)
			core.DecidePlacement(c.Decisions[j].Params, hops[n%len(hops)], opts[j])
			n++
		}
		lt.add("core.placement_us", usSince(start)/batch)
	}
}
