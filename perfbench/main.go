// Command perfbench is the repository's fixed-work benchmark. One run
// executes one named workload against the public functions of the
// compiler, optimizer, runtime, kernels, multi-tenant service and daemon,
// checks the outputs, and prints one JSON result line:
//
//	go run . --workload plan-grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced pass plus the tracing
// overhead. See README.md for the workloads, metrics and seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how often set-up runs; setup_s is the median of their
// CPU times.
const setupRepeats = 5

// bench is one benchmark workload. A run calls setup setupRepeats times
// (the last set-up is kept), then measure once per pass, then check on the
// outcome of each pass outside the timed region.
type bench interface {
	// setup builds the inputs from the seed and finishes warm-up.
	setup(seed int64) error
	// measure performs rounds whole rounds of the workload's fixed
	// operation list. rec is nil for an untraced pass.
	measure(rounds int, rec *recorder) (*pass, error)
	// check validates the pass's outputs, filling failed and unexpected.
	check(p *pass) error
}

// roundSeconds is the nominal wall time of one round of any workload on
// the reference machine; a run performs round(seconds/roundSeconds) rounds,
// so its work is a function of its arguments alone.
const roundSeconds = 10

var workloads = map[string]func() bench{
	"plan-grid":   func() bench { return &planGrid{} },
	"train":       func() bench { return &train{} },
	"service-mix": func() bench { return &serviceMix{} },
	"daemon-open": func() bench { return &daemonOpen{} },
}

// pass is the outcome of one measured pass.
type pass struct {
	wall  float64   // wall seconds of the timed region
	opMS  []float64 // wall milliseconds per operation
	opCPU []float64 // process CPU milliseconds per operation; nil where operations overlap
	calMS []float64 // thread CPU milliseconds of the speed probe run before each operation
	rss   []float64 // resident MB sampled after each operation
	simS  []float64 // simulated seconds per result (gmean input)
	// failed counts operations that errored or failed a check; unexpected
	// counts the subset that is not a documented fault.
	failed, unexpected int
	// layer holds counters and timings the workload reports itself; only
	// a traced run prints them. Self times come from the recorder.
	layer map[string]float64
	// outcome is workload-specific state handed from measure to check.
	outcome interface{}
}

// timeOp runs the speed probe and then one operation, recording the
// probe's time, the operation's wall and CPU time, and the resident memory
// after it.
func (p *pass) timeOp(op func()) {
	p.calMS = append(p.calMS, probeMS())
	t, c := time.Now(), cpuTime()
	op()
	p.opCPU = append(p.opCPU, ms(cpuTime()-c))
	p.opMS = append(p.opMS, ms(time.Since(t)))
	p.rss = append(p.rss, statusMB("VmRSS:"))
}

// normMS returns each operation's CPU time scaled to the reference
// machine's speed: multiplied by calRefMS over the pass's median probe time.
// One factor for the whole pass follows the host's drift from run to run; a
// factor per stretch of operations proved no steadier.
func (p *pass) normMS() []float64 {
	scale := calRefMS / median(p.calMS)
	out := make([]float64, len(p.opCPU))
	for i, c := range p.opCPU {
		out[i] = c * scale
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: plan-grid, train, service-mix or daemon-open")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "amount of work, in nominal seconds of the reference machine")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced pass")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	rounds := int(math.Max(1, math.Round(float64(seconds)/roundSeconds)))
	printProvenance(name, seed, rounds)

	w := mk()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := cpuTime()
		if err := w.setup(seed); err != nil {
			return fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}

	plain, err := measured(w, rounds, nil)
	if err != nil {
		return err
	}
	res := result{Metrics: map[string]metric{}}
	passes := []*pass{plain}
	if traced {
		rec := newRecorder()
		tp, err := measured(w, rounds, rec)
		if err != nil {
			return err
		}
		passes = append(passes, tp)
		for k, m := range layerMetrics(tp, rec) {
			res.Metrics[k] = m
		}
		overhead := tp.wall - plain.wall // daemon-open: overlapping requests
		if plain.opCPU != nil {
			overhead = (sum(tp.normMS()) - sum(plain.normMS())) / 1000
		}
		res.Metrics["trace.overhead_s"] = metric{overhead, "s"}
		res.Metrics["wall.ops_per_s"] = metric{float64(len(plain.opMS)) / plain.wall, "1/s"}
		res.Metrics["wall.op_ms_p50"] = metric{percentile(plain.opMS, 50), "ms"}
		res.Metrics["wall.op_ms_tail"] = metric{tailPercentile(plain.opMS), "ms"}
		res.Metrics["probe.ms_p50"] = metric{percentile(plain.calMS, 50), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		if err := rec.write(name, seed); err != nil {
			return err
		}
	} else {
		res.Metrics = endToEnd(plain, median(setups))
	}
	res.Correct = true
	for _, p := range passes {
		res.Attempted += len(p.opMS)
		res.Failed += p.failed
		if p.unexpected > 0 {
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measured runs one pass, collects Go runtime deltas, then checks it.
func measured(w bench, rounds int, rec *recorder) (*pass, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := w.measure(rounds, rec)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if p.layer == nil {
		p.layer = map[string]float64{}
	}
	p.layer["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	if err := w.check(p); err != nil {
		return nil, err
	}
	return p, nil
}

func endToEnd(p *pass, setup float64) map[string]metric {
	m := map[string]metric{
		"setup_s":     {setup, "s"},
		"rss_mb_p90":  {percentile(p.rss, 90), "MB"},
		"sim_s_gmean": {gmean(p.simS), "sim_s"},
	}
	if p.opCPU == nil {
		// daemon-open: requests overlap, so only their wall latency is
		// theirs alone.
		m["ops_per_s"] = metric{float64(len(p.opMS)) / p.wall, "1/s"}
		m["op_ms_p50"] = metric{percentile(p.opMS, 50), "ms"}
		m["op_ms_tail"] = metric{tailPercentile(p.opMS), "ms"}
		return m
	}
	norm := p.normMS()
	m["ops_per_cpu_s"] = metric{float64(len(norm)) / sum(norm) * 1000, "1/s"}
	m["op_cpu_ms_p50"] = metric{percentile(norm, 50), "ms"}
	m["op_cpu_ms_tail"] = metric{tailPercentile(norm), "ms"}
	return m
}

// layerMetrics merges the recorder's self times and counts with the pass's
// own counters, and fills every per-layer name, 0 where the workload does
// not exercise the layer.
func layerMetrics(p *pass, rec *recorder) map[string]metric {
	vals := map[string]float64{}
	for k, v := range rec.selfSeconds() {
		vals[k+"_s"] = v
	}
	for k, v := range rec.counts {
		vals[k] = v
	}
	for k, v := range p.layer {
		vals[k] = v
	}
	out := map[string]metric{}
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}

func printProvenance(name string, seed int64, rounds int) {
	prov := map[string]interface{}{
		"workload":   name,
		"seed":       seed,
		"rounds":     rounds,
		"commit":     commit(),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	b, _ := json.Marshal(prov) // map of plain values: cannot fail
	fmt.Println("provenance", string(b))
}

// median returns the middle value (mean of the two middle values).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
