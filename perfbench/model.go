package main

// An independent re-implementation of the paper's model (Eq. 3–11), the
// sustained-rate rule, the tier-deadline rule and the multi-hop
// placement rule, written from the paper and the documented request
// vocabulary rather than from the program's code. Every verdict the
// benchmark receives is checked against it, so a benchmark run can
// never report a speed-up bought with a wrong answer.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// quantity suffix tables, SI decimal (the paper's units: 1 GB = 1e9 B).
var (
	byteSuffix     = map[string]float64{"B": 1, "KB": 1e3, "MB": 1e6, "GB": 1e9, "TB": 1e12}
	bitRateSuffix  = map[string]float64{"BPS": 1, "KBPS": 1e3, "MBPS": 1e6, "GBPS": 1e9, "TBPS": 1e12}
	byteRateSuffix = map[string]float64{"B/S": 1, "KB/S": 1e3, "MB/S": 1e6, "GB/S": 1e9, "TB/S": 1e12}
	flopsSuffix    = map[string]float64{"GF": 1e9, "TF": 1e12, "PF": 1e15}
)

// parseQuantity parses "<number><suffix>" against one suffix table; the
// caller picks the table, so "bps" and "B/s" never meet.
func parseQuantity(s string, table map[string]float64) (float64, error) {
	s = strings.TrimSpace(s)
	i := 0
	for i < len(s) && (s[i] == '.' || s[i] == '-' || s[i] == '+' || s[i] == 'e' && i > 0 || s[i] >= '0' && s[i] <= '9') {
		i++
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("quantity %q: %w", s, err)
	}
	mult, ok := table[strings.ToUpper(strings.TrimSpace(s[i:]))]
	if !ok {
		return 0, fmt.Errorf("quantity %q: unknown unit %q", s, s[i:])
	}
	return v * mult, nil
}

// modelWorkload is one portfolio row in SI base units.
type modelWorkload struct {
	Name     string
	S        float64 // unit size, bytes
	C        float64 // complexity, FLOP per byte
	Rl, Rr   float64 // local and remote compute, FLOP/s
	Theta    float64 // file-I/O overhead, >= 1
	Gen      float64 // sustained generation rate, B/s (0 = not checked)
	Deadline float64 // tier budget, s (0 = none)
}

// workloadJSON is the documented portfolio row schema.
type workloadJSON struct {
	Name                string  `json:"name"`
	UnitSize            string  `json:"unit_size"`
	ComplexityFLOPPerGB float64 `json:"complexity_flop_per_gb"`
	Local               string  `json:"local"`
	Remote              string  `json:"remote"`
	Bandwidth           string  `json:"bandwidth,omitempty"`
	TransferRate        string  `json:"transfer_rate,omitempty"`
	Theta               float64 `json:"theta,omitempty"`
	GenerationRate      string  `json:"generation_rate,omitempty"`
	Tier                int     `json:"tier,omitempty"`
}

// tierBudget is §5's latency tiers: real-time < 1 s, near-real-time
// < 10 s, quasi-real-time < 1 min.
func tierBudget(t int) (float64, error) {
	switch t {
	case 0:
		return 0, nil
	case 1:
		return 1, nil
	case 2:
		return 10, nil
	case 3:
		return 60, nil
	}
	return 0, fmt.Errorf("unknown tier %d", t)
}

func (w workloadJSON) model() (modelWorkload, error) {
	m := modelWorkload{Name: w.Name, C: w.ComplexityFLOPPerGB / 1e9, Theta: w.Theta}
	var err error
	if m.S, err = parseQuantity(w.UnitSize, byteSuffix); err != nil {
		return m, err
	}
	if m.Rl, err = parseQuantity(w.Local, flopsSuffix); err != nil {
		return m, err
	}
	if m.Rr, err = parseQuantity(w.Remote, flopsSuffix); err != nil {
		return m, err
	}
	if m.Theta == 0 {
		m.Theta = 1
	}
	if w.GenerationRate != "" {
		if m.Gen, err = parseQuantity(w.GenerationRate, byteRateSuffix); err != nil {
			return m, err
		}
	}
	m.Deadline, err = tierBudget(w.Tier)
	return m, err
}

// loadPortfolioJSON reads the portfolio file into both its raw rows (to
// send in request bodies) and the model's form.
func loadPortfolioJSON(path string) ([]workloadJSON, []modelWorkload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f struct {
		Workloads []workloadJSON `json:"workloads"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, nil, fmt.Errorf("%s: no workloads", path)
	}
	ms := make([]modelWorkload, len(f.Workloads))
	for i, w := range f.Workloads {
		if ms[i], err = w.model(); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", path, w.Name, err)
		}
	}
	return f.Workloads, ms, nil
}

// verdict is the model's answer for one workload at one transfer rate.
type verdict struct {
	TLocal, TTransfer, TRemote, TPct, Gain float64
	Choice                                 string
	SustainedOK, DeadlineOK                bool
	// Tie is set when a comparison the choice rests on is within the
	// program's nanosecond time resolution; either side is then right.
	Tie bool
}

// near reports whether two times (seconds) are equal to within the
// nanosecond rounding the program applies to every duration.
func near(a, b float64) bool { return math.Abs(a-b) <= 4e-9+1e-12*math.Max(math.Abs(a), math.Abs(b)) }

// decideModel applies Eq. 3–10 and the decision rules at effective
// transfer rate rate (B/s).
func decideModel(w modelWorkload, rate float64) verdict {
	v := verdict{SustainedOK: true, DeadlineOK: true}
	v.TLocal = w.C * w.S / w.Rl              // Eq. 3
	v.TTransfer = w.S / rate                 // Eq. 5
	v.TRemote = w.C * w.S / w.Rr             // Eq. 6
	v.TPct = w.Theta*v.TTransfer + v.TRemote // Eq. 7–10: θ·T_transfer + T_remote
	v.Gain = v.TLocal / v.TPct
	if w.Gen > 0 && w.Gen > rate {
		v.SustainedOK = false
	}
	d := w.Deadline
	misses := func(t float64) bool {
		if d > 0 && near(t, d) {
			v.Tie = true
		}
		return d > 0 && t > d
	}
	if near(v.TPct, v.TLocal) {
		v.Tie = true
	}
	switch {
	case !v.SustainedOK:
		if misses(v.TLocal) {
			v.Choice, v.DeadlineOK = "infeasible", false
		} else {
			v.Choice = "local"
		}
	case v.TPct < v.TLocal:
		if misses(v.TPct) {
			v.DeadlineOK = false
			if misses(v.TLocal) {
				v.Choice = "infeasible"
			} else {
				v.Choice = "local"
			}
		} else {
			v.Choice = "remote"
		}
	default:
		if misses(v.TLocal) {
			v.DeadlineOK = false
			if misses(v.TPct) {
				v.Choice = "infeasible"
			} else {
				v.Choice = "remote"
			}
		} else {
			v.Choice = "local"
		}
	}
	return v
}

// theoretical is T_theoretical (§4.1): size over the raw link, seconds.
func theoretical(sizeBytes, linkBits float64) float64 { return sizeBytes / (linkBits / 8) }

// effectiveRate is the conservative α·Bw a cell supports: its transfer
// size over its worst-case FCT, capped at the link.
func effectiveRate(sizeBytes, worst, linkBits float64) float64 {
	return math.Min(sizeBytes/worst, linkBits/8)
}

// hopModel is one hop of a path as the placement rule sees it.
type hopModel struct {
	Name     string
	CapBits  float64
	Cross    float64
	Residual float64 // B/s
}

// bottleneck is the hop with the least residual rate; the first wins
// ties. Its capacity is the composed path's link.
func bottleneck(hops []hopModel) int {
	bn := 0
	for i, h := range hops {
		if h.Residual < hops[bn].Residual {
			bn = i
		}
	}
	return bn
}

// placementModel is the placement verdict and per-hop attribution.
type placementModel struct {
	Placement  string
	Bottleneck int
	Sustained  []bool
	Tie        bool
}

// placeModel generalises the verdict to an edge→WAN→facility chain:
// stream direct when the raw stream wins; else, when a prefilter is
// configured, there are at least two hops and the first hop carries the
// raw generation rate, re-decide with the prefiltered volume and rate;
// else store and forward.
func placeModel(w modelWorkload, rate float64, hops []hopModel, prefilter float64) placementModel {
	pm := placementModel{Sustained: make([]bool, len(hops)), Bottleneck: bottleneck(hops)}
	for i, h := range hops {
		pm.Sustained[i] = w.Gen <= 0 || w.Gen <= h.Residual
	}
	direct := decideModel(w, rate)
	pm.Tie = direct.Tie
	if direct.Choice == "remote" {
		pm.Placement = "stream-direct"
		return pm
	}
	if prefilter > 0 && len(hops) >= 2 && pm.Sustained[0] {
		fw := w
		fw.S *= prefilter
		fw.Gen *= prefilter
		filtered := decideModel(fw, rate)
		pm.Tie = pm.Tie || filtered.Tie
		if filtered.Choice == "remote" {
			pm.Placement = "edge-prefilter"
			return pm
		}
	}
	pm.Placement = "store-forward"
	return pm
}

// relClose compares two measured quantities to a relative tolerance.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
