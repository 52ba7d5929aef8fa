package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"elasticml/internal/hop"
	"elasticml/internal/matrix"
	"elasticml/internal/rt"
)

// spanDir receives the traced pass's spans, inside the build directory the
// repository ignores.
const spanDir = ".bench_build/spans"

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayer is every per-layer metric a traced run reports, in BENCHMARK.json
// order. Names ending in _s are span self times unless a workload reports
// them itself.
var perLayer = []layerMetric{
	{"dml.parse_s", "s"},
	{"hop.compile_s", "s"},
	{"hop.hops", "count"},
	{"opt.optimize_s", "s"},
	{"opt.costings", "count"},
	{"opt.block_compilations", "count"},
	{"opt.pruned_blocks", "count"},
	{"lop.select_s", "s"},
	{"lop.mr_jobs", "count"},
	{"cost.program_cost_s", "s"},
	{"adapt.adapt_s", "s"},
	{"adapt.calls", "count"},
	{"rt.run_s", "s"},
	{"rt.instructions", "count"},
	{"rt.recompiles", "count"},
	{"matrix.kernels", "count"},
	{"matrix.chunks", "count"},
	{"rt.hop_s.matmult", "s"},
	{"rt.hop_s.reorg", "s"},
	{"rt.hop_s.binary", "s"},
	{"rt.hop_s.unary", "s"},
	{"rt.hop_s.agg", "s"},
	{"rt.hop_s.tagg", "s"},
	{"rt.hop_s.solve", "s"},
	{"rt.hop_s.rix", "s"},
	{"rt.hop_s.other", "s"},
	{"workload.submit_s", "s"},
	{"workload.step_s", "s"},
	{"opt.cache_hits", "count"},
	{"opt.cache_misses", "count"},
	{"opt.cache_hit_ratio", "ratio"},
	{"workload.reopt_checks", "count"},
	{"workload.reopt_changes", "count"},
	{"workload.grows", "count"},
	{"workload.shrinks", "count"},
	{"workload.wasted_work_s", "sim_s"},
	{"server.ping_ms_p50", "ms"},
	{"server.status_ms_p50", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.submit_ms_tail", "ms"},
	{"server.sheds", "count"},
	{"load.late_ms_max", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
	{"wall.ops_per_s", "1/s"},
	{"wall.op_ms_p50", "ms"},
	{"wall.op_ms_tail", "ms"},
	{"probe.ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

// span is one timed call into a layer. Spans of one operation share op;
// parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_us"`
	Dur    int64  `json:"dur_us"`
}

// recorder keeps spans and counts in memory and writes them out when the
// run ends. A nil recorder records nothing, so untraced passes pay only a
// nil check. begin/end nest on a stack and belong to one goroutine; record
// appends a finished root span and may be called from any goroutine.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	stack  []int
	op     int
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]float64{}}
}

// setOp stamps later spans with operation number i.
func (r *recorder) setOp(i int) {
	if r != nil {
		r.op = i
	}
}

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: time.Since(r.t0).Microseconds()})
	r.stack = append(r.stack, len(r.spans)-1)
	r.mu.Unlock()
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].Dur = now - r.spans[i].Start
	r.mu.Unlock()
}

// record appends a finished root span.
func (r *recorder) record(name string, op int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: -1,
		Start: start.Sub(r.t0).Microseconds(), Dur: end.Sub(start).Microseconds()})
	r.mu.Unlock()
}

// add increments a counter.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// selfSeconds sums, per span name, each span's duration minus the time its
// child spans cover.
func (r *recorder) selfSeconds() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.Name] += float64(s.Dur-child[i]) / 1e6
	}
	return out
}

// write stores the spans as JSON lines under spanDir.
func (r *recorder) write(workload string, seed int64) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}

// tracedAdapter records an adapt span around every call into the wrapped
// rt.Adapter; the interpreter's enclosing rt.run span becomes its parent.
type tracedAdapter struct {
	inner rt.Adapter
	rec   *recorder
}

func (a tracedAdapter) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	a.rec.add("adapt.calls", 1)
	a.rec.begin("adapt.adapt")
	defer a.rec.end()
	return a.inner.Adapt(ctx)
}

// hopTimer attributes the wall time between successive rt.Interp.MemHook
// callbacks to the HOP kind reported at the later callback.
type hopTimer struct {
	rec  *recorder
	last time.Time
}

func (t *hopTimer) hook(h *hop.Hop, _ []*matrix.Matrix, _ *matrix.Matrix) {
	now := time.Now()
	t.rec.add("rt.hop_s."+hopKindName(h.Kind), now.Sub(t.last).Seconds())
	t.last = now
}

func hopKindName(k hop.Kind) string {
	switch k {
	case hop.KindMatMul:
		return "matmult"
	case hop.KindReorg, hop.KindBinary, hop.KindUnary, hop.KindAggUnary,
		hop.KindTernaryAgg, hop.KindSolve, hop.KindIndex:
		return k.String()
	}
	return "other"
}

// countHops counts the distinct HOPs of every block DAG in the program.
func countHops(p *hop.Program) int {
	n := 0
	hop.WalkBlocks(p.Blocks, func(b *hop.Block) {
		roots := append([]*hop.Hop(nil), b.Roots...)
		for _, h := range []*hop.Hop{b.Pred, b.From, b.To} {
			if h != nil {
				roots = append(roots, h)
			}
		}
		hop.WalkDAG(roots, func(*hop.Hop) { n++ })
	})
	return n
}
