// Command perfbench is the repository's end-to-end benchmark: it runs one
// workload for a fixed time against the program's public packages and
// prints, as its last line, one JSON object with the verdict of its
// output checks, the operation counts and the metrics.
//
//	python3 perfbench/run.py --workload service_mixed --seed 1 --seconds 25 --trace 0
//
// (run.py builds this package into .bench_build/perfbench and runs it).
// grid_warm_100k and service_mixed are the workloads BENCHMARK.json
// gates; grid_cold_20k runs by hand (see README.md).
//
// It must run from the repository root: it reads the portfolio at
// examples/portfolio/portfolio.json and keeps every cache directory
// under .bench_build/tmp, removed on every exit path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const portfolioPath = "examples/portfolio/portfolio.json"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tmp      string // this run's private scratch directory
}

var workloads = map[string]func(*runConfig) (*report, error){
	"grid_cold_20k":  runGridCold,
	"grid_warm_100k": runGridWarm,
	"service_mixed":  runService,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runConfig
	var traceFlag int
	var cacheRoot string
	flag.StringVar(&cfg.workload, "workload", "", "workload: grid_cold_20k, grid_warm_100k or service_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured time per run, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cacheRoot, "cache-root", filepath.Join(".bench_build", "tmp"),
		"directory under which the run's cache directories are made")
	flag.Parse()
	cfg.trace = traceFlag == 1
	wl, ok := workloads[cfg.workload]
	if !ok || traceFlag < 0 || traceFlag > 1 || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n",
			cfg.workload, traceFlag, cfg.seconds)
		return 2
	}
	if _, err := os.Stat(portfolioPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(cacheRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(cacheRoot, cfg.workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.tmp = tmp
	defer os.RemoveAll(tmp)
	// A signal must not leave cache directories behind either.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(tmp)
		os.Exit(1)
	}()

	env := readEnv(tmp)
	fmt.Printf("env: workload=%s seed=%d seconds=%g trace=%t fs=%s gomaxprocs=%d nproc=%d cpu=%q go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env.fsType, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		env.cpuModel, runtime.Version())
	rep, err := wl(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Printf("env: cpu steal during run %.2f%% (not gated)\n", env.stealShare()*100)
	if cfg.trace {
		if err := rep.tracer.writeFile(filepath.Join(".bench_build", "traces",
			fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	res := rep.result(cfg.trace)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value (no successful operation)\n", name)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// class tallies one request class.
type class struct {
	name      string
	attempted int
	failed    int
	lat       []float64 // ms, successful operations
}

// report is what a workload hands back: operation classes, set-up
// times and, on a traced run, the per-layer figures.
type report struct {
	classes []*class
	primary *class    // the class op_ms_p50 is taken from
	setups  []float64 // seconds, one per set-up
	busy    float64   // seconds spent inside timed operations
	// broken is set when a check not tied to one operation failed (a
	// set-up grid that disagrees with the model): the outputs are wrong.
	broken error
	layers map[string]metric
	tracer *tracer
}

func (r *report) class(name string) *class {
	for _, c := range r.classes {
		if c.name == name {
			return c
		}
	}
	c := &class{name: name}
	r.classes = append(r.classes, c)
	return c
}

// record books one operation: its latency on success, a failure with
// the reason otherwise (first few reasons are printed).
func (r *report) record(c *class, ms float64, err error) {
	c.attempted++
	r.busy += ms / 1e3
	if err != nil {
		c.failed++
		if c.failed <= 3 {
			fmt.Printf("fail: %s: %v\n", c.name, err)
		}
		return
	}
	c.lat = append(c.lat, ms)
}

func (r *report) result(traced bool) result {
	res := result{Correct: r.broken == nil, Metrics: map[string]metric{}}
	if r.broken != nil {
		fmt.Printf("fail: outputs disagree with the model: %v\n", r.broken)
	}
	ops := 0
	for _, c := range r.classes {
		res.Attempted += c.attempted
		res.Failed += c.failed
		ops += len(c.lat)
		fmt.Printf("class: %-10s attempted=%d failed=%d n=%d p50=%.4fms p90=%.4fms p99=%.4fms\n",
			c.name, c.attempted, c.failed, len(c.lat),
			quantile(c.lat, 0.5), quantile(c.lat, 0.9), quantile(c.lat, 0.99))
		if len(c.lat) <= 50 {
			fmt.Printf("class: %-10s ms %.1f\n", c.name, c.lat)
		}
	}
	fmt.Printf("setup: %d set-ups, seconds %v\n", len(r.setups), r.setups)
	if traced {
		res.Metrics = r.layers
		return res
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss is VmHWM, in KiB on Linux
	res.Metrics["setup_s"] = metric{quantile(r.setups, 0.5), "s"}
	res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) * 1024 / 1e6, "MB"}
	res.Metrics["op_ms_p50"] = metric{quantile(r.primary.lat, 0.5), "ms"}
	res.Metrics["ops_per_s"] = metric{float64(ops) / r.busy, "1/s"}
	return res
}

// quantile is the linearly interpolated q-quantile of xs (NaN when
// empty); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// since returns milliseconds elapsed since t.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
