package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/fault"
	"elasticml/internal/workload"
)

// service-mix serves seeded tenant traces to completion, each on a fresh
// workload.Service driven through Submit and Step. Operations rotate over
// three traces: Generate under FIFO, GenerateSkewedBurst under fair share,
// and GenerateMinibatch with a straggler chaos plan under the regret
// policy. The traces come from the fixed seeds 1..mixTraces, a round
// serves each mixRepeats times, and --seed permutes the order: tenant latency on the regret traces is bimodal
// (5-10 s or 400-1000 s per tenant), so a seed-drawn set of 40 such traces
// moves its geometric mean by up to 2x and would make sim_s_gmean a
// property of the seed rather than of the code.

const (
	// mixTraces is how many distinct traces (a multiple of three) one
	// round serves, each mixRepeats times.
	mixTraces  = 30
	mixRepeats = 4
	// mixTenants is the tenant count of every trace.
	mixTenants = 12
)

// mixTrace is one operation's input.
type mixTrace struct {
	kind string
	seed int64
	cc   conf.Cluster
	jobs []workload.JobSpec
	opts workload.Options
}

type serviceMix struct {
	traces []mixTrace
	// sequential caches each distinct trace's report at Workers=1, keyed
	// by its seed; repeats of a trace must match it too.
	sequential map[int64][]byte
}

// mixOutcome is one served trace.
type mixOutcome struct {
	t        *mixTrace
	rep      *workload.Report
	terminal []int // per-tenant count of terminal transitions seen
	states   []string
	err      error
}

func (w *serviceMix) setup(seed int64) error {
	w.traces = w.traces[:0]
	w.sequential = map[int64][]byte{}
	for i := 0; i < mixTraces*mixRepeats; i++ {
		k := i % mixTraces
		w.traces = append(w.traces, newMixTrace(k%3, int64(k+1), runtime.NumCPU()))
	}
	// Warm-up: the first trace of each kind, the same whatever the seed.
	for i := 0; i < 3; i++ {
		if o := serve(&w.traces[i], nil); o.err != nil {
			return fmt.Errorf("warm-up %s: %w", w.traces[i].kind, o.err)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(w.traces), func(i, j int) { w.traces[i], w.traces[j] = w.traces[j], w.traces[i] })
	return nil
}

// newMixTrace builds trace kind k (0 FIFO, 1 fair, 2 regret) from a seed.
func newMixTrace(k int, seed int64, workers int) mixTrace {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	o := workload.DefaultOptions()
	o.Workers = workers
	t := mixTrace{seed: seed, cc: cc, opts: o}
	switch k {
	case 0:
		t.kind = "fifo"
		t.cc.MemPerNode, t.cc.MaxAlloc = 2*conf.GB, 2*conf.GB
		t.jobs = workload.Generate(seed, mixTenants, 3)
	case 1:
		t.kind = "fair"
		t.cc.MemPerNode, t.cc.MaxAlloc = 1*conf.GB, 1*conf.GB
		t.opts.Policy = workload.PolicyFair
		t.opts.Elastic.Tick = 5
		t.jobs = workload.GenerateSkewedBurst(seed, mixTenants)
	default:
		t.kind = "regret"
		t.cc.MemPerNode, t.cc.MaxAlloc = 1*conf.GB, 1*conf.GB
		t.opts.Policy = workload.PolicyRegret
		t.opts.Elastic.Tick = 5
		t.opts.Recovery.Kind = workload.RecoveryCheckpoint
		t.opts.Chaos = fault.ChaosPlan{Seed: seed, SlowNodes: []fault.SlowNode{
			{Node: 0, At: 15, Factor: 3, Duration: 40},
			{Node: 1, At: 70, Factor: 2, Duration: 30},
		}}
		t.jobs = workload.GenerateMinibatch(seed, mixTenants)
	}
	return t
}

// serve runs one trace to completion through the incremental service API.
func serve(t *mixTrace, rec *recorder) mixOutcome {
	out := mixOutcome{t: t, terminal: make([]int, len(t.jobs))}
	svc, err := workload.New(t.cc, t.opts)
	if err != nil {
		out.err = err
		return out
	}
	rec.begin("op")
	defer rec.end()
	for _, spec := range t.jobs {
		rec.begin("workload.submit")
		_, err := svc.Submit(spec)
		rec.end()
		if err != nil {
			out.err = err
			return out
		}
	}
	svc.ScheduleChaos()
	for {
		rec.begin("workload.step")
		more := svc.Step()
		rec.end()
		out.drain(svc)
		if !more {
			break
		}
	}
	out.rep = svc.Finalize()
	out.drain(svc)
	for i := range t.jobs {
		st, _ := svc.State(i)
		out.states = append(out.states, st)
	}
	return out
}

func (o *mixOutcome) drain(svc *workload.Service) {
	for _, idx := range svc.DrainFinished() {
		if idx >= 0 && idx < len(o.terminal) {
			o.terminal[idx]++
		}
	}
}

func (w *serviceMix) measure(rounds int, rec *recorder) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	var outs []mixOutcome
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range w.traces {
			rec.setOp(r*len(w.traces) + i)
			var o mixOutcome
			p.timeOp(func() { o = serve(&w.traces[i], rec) })
			outs = append(outs, o)
		}
	}
	p.wall = time.Since(start).Seconds()
	for _, o := range outs {
		if o.rep == nil {
			continue
		}
		r := o.rep
		p.layer["opt.cache_hits"] += float64(r.Cache.Hits)
		p.layer["opt.cache_misses"] += float64(r.Cache.Misses)
		p.layer["workload.reopt_checks"] += float64(r.ReoptChecks)
		p.layer["workload.reopt_changes"] += float64(r.ReoptChanges)
		p.layer["workload.grows"] += float64(r.Grows)
		p.layer["workload.shrinks"] += float64(r.Shrinks)
		p.layer["workload.wasted_work_s"] += r.WastedWork
	}
	if n := p.layer["opt.cache_hits"] + p.layer["opt.cache_misses"]; n > 0 {
		p.layer["opt.cache_hit_ratio"] = p.layer["opt.cache_hits"] / n
	}
	p.outcome = outs
	return p, nil
}

// terminalStates are the lifecycle states a tenant may end in.
var terminalStates = map[string]bool{
	"done": true, "failed-permanently": true, "shed": true, "unserved": true, "canceled": true,
}

func (w *serviceMix) check(p *pass) error {
	for _, o := range p.outcome.([]mixOutcome) {
		err := o.err
		if err == nil {
			err = w.checkTrace(o)
		}
		if err != nil {
			p.failed++
			p.unexpected++
			fmt.Fprintln(os.Stderr, "perfbench: FAIL", o.t.kind, err)
			continue
		}
		for _, t := range o.rep.Tenants {
			if t.Served {
				p.simS = append(p.simS, t.Latency)
			}
		}
	}
	return nil
}

// checkTrace verifies that every tenant reached exactly one terminal state
// and that a sequential service (Workers=1) serving the same trace reports
// the same bytes.
func (w *serviceMix) checkTrace(o mixOutcome) error {
	for i, n := range o.terminal {
		if n != 1 || !terminalStates[o.states[i]] {
			return fmt.Errorf("tenant %d: %d terminal transitions, final state %q", i, n, o.states[i])
		}
	}
	want, ok := w.sequential[o.t.seed]
	if !ok {
		seq := *o.t
		seq.opts.Workers = 1
		so := serve(&seq, nil)
		if so.err != nil {
			return fmt.Errorf("workers=1: %w", so.err)
		}
		var b bytes.Buffer
		if err := so.rep.WriteJSON(&b); err != nil {
			return err
		}
		want = b.Bytes()
		w.sequential[o.t.seed] = want
	}
	var a bytes.Buffer
	if err := o.rep.WriteJSON(&a); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), want) {
		return fmt.Errorf("report at workers=%d differs from workers=1", o.t.opts.Workers)
	}
	return nil
}
