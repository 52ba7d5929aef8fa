package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"elasticml/internal/adapt"
	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
)

// plan-grid runs the paper's pipeline cold on every (program, scenario)
// case: parse, compile, optimize (hybrid grid, m=15), select, cost, and
// simulate with runtime adaptation charging a fixed re-optimization cost.
// The case set is fixed; the seed only permutes the order.

// reoptCharge is the simulated seconds charged per re-optimization, so
// simulated times do not depend on wall time.
const reoptCharge = 2.0

// optimalitySlack is how much worse than the best static baseline the
// optimizer's modelled cost may be.
const optimalitySlack = 1.05

type gridCase struct {
	spec    scripts.Spec
	s       datagen.Scenario
	classes int64
}

func (c gridCase) String() string {
	return fmt.Sprintf("%s %s %s", c.spec.Name, c.s.Size, c.s.ShapeName())
}

// knownFault reports whether the case is the documented optimizer miss:
// on LinregDS L dense1000 the chosen 341MB/5.3GB models at 216.5 s while
// the static B-SL (512MB/4.4GB) models at 198.5 s.
func (c gridCase) knownFault() bool {
	return c.spec.Name == "LinregDS" && c.s.Size == "L" && c.s.Cols == 1000 && c.s.Sparsity == 1.0
}

// gridCases returns the 8 corpus programs x sizes XS-XL x the four shapes.
func gridCases() []gridCase {
	progs := append(scripts.All(), scripts.Minibatch()...)
	var out []gridCase
	for _, p := range progs {
		classes := int64(0)
		if p.Name == "MLogreg" {
			classes = 20
		}
		for _, size := range datagen.Sizes {
			for _, sh := range datagen.Shapes() {
				out = append(out, gridCase{p, datagen.New(size, sh.Cols, sh.Sparsity), classes})
			}
		}
	}
	return out
}

type planGrid struct {
	cc    conf.Cluster
	cases []gridCase
}

// gridOutcome is one case's result, checked after the timed region.
type gridOutcome struct {
	c        gridCase
	res      conf.Resources
	modelled float64
	simS     float64
	err      error
}

func (w *planGrid) setup(seed int64) error {
	w.cc = conf.DefaultCluster()
	w.cases = gridCases()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(w.cases), func(i, j int) { w.cases[i], w.cases[j] = w.cases[j], w.cases[i] })
	// Warm-up: every program once on the smallest scenario.
	for _, c := range gridCases() {
		if c.s.Size == "XS" && c.s.Cols == 1000 && c.s.Sparsity == 1.0 {
			if o := w.runCase(c, nil); o.err != nil {
				return fmt.Errorf("warm-up %s: %w", c, o.err)
			}
		}
	}
	return nil
}

func (w *planGrid) measure(rounds int, rec *recorder) (*pass, error) {
	p := &pass{}
	var outs []gridOutcome
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, c := range w.cases {
			rec.setOp(r*len(w.cases) + i)
			var o gridOutcome
			p.timeOp(func() { o = w.runCase(c, rec) })
			outs = append(outs, o)
		}
	}
	p.wall = time.Since(start).Seconds()
	p.outcome = outs
	return p, nil
}

// runCase executes one case through every layer, timing each call when
// rec is non-nil.
func (w *planGrid) runCase(c gridCase, rec *recorder) gridOutcome {
	out := gridOutcome{c: c}
	fs := hdfs.New()
	datagen.Describe(fs, c.s)

	rec.begin("op")
	defer rec.end()
	rec.begin("dml.parse")
	prog, err := dml.Parse(c.spec.Source)
	rec.end()
	if err != nil {
		out.err = err
		return out
	}
	comp := hop.NewCompiler(fs, c.spec.Params)
	rec.begin("hop.compile")
	hp, err := comp.Compile(prog, c.spec.Source)
	rec.end()
	if err != nil {
		out.err = err
		return out
	}
	if rec != nil {
		rec.add("hop.hops", float64(countHops(hp)))
	}

	rec.begin("opt.optimize")
	result := opt.New(w.cc).Optimize(hp)
	rec.end()
	rec.add("opt.costings", float64(result.Stats.Costings))
	rec.add("opt.block_compilations", float64(result.Stats.BlockCompilations))
	rec.add("opt.pruned_blocks", float64(result.Stats.PrunedBlocks))
	out.res = result.Res.Clone()

	rec.begin("lop.select")
	plan := lop.Select(hp, w.cc, result.Res)
	rec.end()
	rec.add("lop.mr_jobs", float64(lop.NumMRJobs(plan.Blocks)))

	rec.begin("cost.program_cost")
	out.modelled = cost.NewEstimator(w.cc).ProgramCost(plan)
	rec.end()

	ip := rt.New(rt.ModeSim, fs, w.cc, result.Res)
	ip.Compiler = comp
	if c.classes > 0 {
		ip.SimTableCols = c.classes
	}
	ad := adapt.New(w.cc)
	ad.OptCharge = reoptCharge
	ip.Adapter = ad
	if rec != nil {
		ip.Adapter = tracedAdapter{inner: ad, rec: rec}
	}
	rec.begin("rt.run")
	err = ip.Run(plan)
	rec.end()
	rec.add("rt.instructions", float64(ip.Stats.Instructions))
	rec.add("rt.recompiles", float64(ip.Stats.Recompiles))
	if err != nil {
		out.err = fmt.Errorf("run: %w", err)
		return out
	}
	out.simS = ip.SimTime
	return out
}

func (w *planGrid) check(p *pass) error {
	for _, o := range p.outcome.([]gridOutcome) {
		p.simS = append(p.simS, o.simS)
		err := o.err
		if err == nil {
			err = w.checkCase(o)
		}
		if err != nil {
			p.failed++
			label := "known fault"
			if !o.c.knownFault() {
				p.unexpected++
				label = "FAIL"
			}
			fmt.Fprintln(os.Stderr, "perfbench:", label, o.c, err)
		}
	}
	return nil
}

// checkCase verifies that the chosen configuration fits YARN's allocation
// limits and that its modelled cost is within optimalitySlack of every
// static baseline, costed from a fresh compilation.
func (w *planGrid) checkCase(o gridOutcome) error {
	lo, hi := w.cc.MinHeap(), w.cc.MaxHeap()
	if o.res.CP < lo || o.res.CP > hi {
		return fmt.Errorf("CP heap %v outside [%v, %v]", o.res.CP, lo, hi)
	}
	for i, m := range o.res.MR {
		if m < lo || m > hi {
			return fmt.Errorf("MR heap %d = %v outside [%v, %v]", i, m, lo, hi)
		}
	}
	fs := hdfs.New()
	datagen.Describe(fs, o.c.s)
	prog, err := dml.Parse(o.c.spec.Source)
	if err != nil {
		return err
	}
	hp, err := hop.NewCompiler(fs, o.c.spec.Params).Compile(prog, o.c.spec.Source)
	if err != nil {
		return err
	}
	est := cost.NewEstimator(w.cc)
	for _, b := range baselines(w.cc) {
		base := est.ProgramCost(lop.Select(hp, w.cc, conf.NewResources(b.cp, b.mr, hp.NumLeaf)))
		if o.modelled > optimalitySlack*base {
			return fmt.Errorf("chosen %v models at %.1fs, %.2fx of %s (%.1fs)",
				o.res, o.modelled, o.modelled/base, b.name, base)
		}
	}
	return nil
}

type baseline struct {
	name   string
	cp, mr conf.Bytes
}

// baselines are the paper's static configurations B-SS, B-LS, B-SL, B-LL:
// 512MB or the largest heap for CP, 512MB or 4.4GB for MR tasks.
func baselines(cc conf.Cluster) []baseline {
	small, largeCP, largeMR := 512*conf.MB, cc.MaxHeap(), conf.BytesOfGB(4.4)
	return []baseline{
		{"B-SS", small, small},
		{"B-LS", largeCP, small},
		{"B-SL", small, largeMR},
		{"B-LL", largeCP, largeMR},
	}
}
