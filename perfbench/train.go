package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/rt"
	"elasticml/internal/scripts"
	"elasticml/internal/verify"
)

// train runs regression training in value mode on real matrices drawn from
// the seed: the direct solver on a dense and a sparse input and conjugate
// gradient on the dense input. Every plan runs in CP with the kernels at
// dop = nproc, so the time goes to the matrix kernels.

const (
	denseRows, denseCols   = 10000, 200
	sparseRows, sparseCols = 50000, 100
	sparseSparsity         = 0.05
	// trainRepeats is how often one round runs each training case.
	trainRepeats = 18
	// refTol is the relative error allowed against the reference
	// interpreter and in the normal equations.
	refTol = 1e-6
)

type trainCase struct {
	name   string
	spec   scripts.Spec
	x, y   *matrix.Matrix
	normal bool // coefficients must satisfy the normal equations
}

type train struct {
	cc    conf.Cluster
	res   conf.Resources
	cases []trainCase
	// refs and systems cache the per-case oracles across passes.
	refs    map[*trainCase]*matrix.Matrix
	systems map[*trainCase]*normalSystem
}

// trainOutcome is one training run's coefficients.
type trainOutcome struct {
	c    *trainCase
	beta *matrix.Matrix
	simS float64
	err  error
}

func (w *train) setup(seed int64) error {
	w.cc = conf.DefaultCluster()
	w.res = conf.NewResources(w.cc.MaxHeap(), w.cc.MaxHeap(), 1).WithCores(runtime.NumCPU())
	xd := matrix.Random(denseRows, denseCols, 1.0, -1, 1, seed)
	xs := matrix.Random(sparseRows, sparseCols, sparseSparsity, -1, 1, seed+1)
	yd := response(xd, seed+2)
	ys := response(xs, seed+3)
	cg := scripts.LinregCG()
	cg.Params["maxi"] = float64(20)
	w.refs, w.systems = nil, nil
	w.cases = []trainCase{
		{"LinregDS dense", scripts.LinregDS(), xd, yd, true},
		{"LinregDS sparse", scripts.LinregDS(), xs, ys, true},
		{"LinregCG dense", cg, xd, yd, false},
	}
	// Warm-up: one run of each case.
	for i := range w.cases {
		if o := w.runCase(&w.cases[i], nil); o.err != nil {
			return fmt.Errorf("warm-up %s: %w", w.cases[i].name, o.err)
		}
	}
	return nil
}

// response returns y = X beta + noise for a seeded beta.
func response(x *matrix.Matrix, seed int64) *matrix.Matrix {
	beta := matrix.Random(x.Cols(), 1, 1.0, -1, 1, seed)
	noise := matrix.Random(x.Rows(), 1, 1.0, -0.1, 0.1, seed+100)
	return matrix.EW(matrix.Add, matrix.Mul(x, beta), noise).Compact()
}

func (w *train) measure(rounds int, rec *recorder) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	var outs []trainOutcome
	k0, c0, _ := matrix.PoolStats()
	start := time.Now()
	op := 0
	for r := 0; r < rounds*trainRepeats; r++ {
		for i := range w.cases {
			rec.setOp(op)
			op++
			var o trainOutcome
			p.timeOp(func() { o = w.runCase(&w.cases[i], rec) })
			outs = append(outs, o)
		}
	}
	p.wall = time.Since(start).Seconds()
	k1, c1, _ := matrix.PoolStats()
	p.layer["matrix.kernels"] = float64(k1 - k0)
	p.layer["matrix.chunks"] = float64(c1 - c0)
	p.outcome = outs
	return p, nil
}

// stage returns a file system holding the case's inputs.
func (c *trainCase) stage() *hdfs.FS {
	fs := hdfs.New()
	fs.PutMatrix("/data/X", c.x)
	fs.PutMatrix("/data/y", c.y)
	return fs
}

func (w *train) runCase(c *trainCase, rec *recorder) trainOutcome {
	out := trainOutcome{c: c}
	fs := c.stage()
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
	res := conf.NewResources(w.res.CP, w.res.MR[0], hp.NumLeaf).WithCores(w.res.CPCores)
	rec.begin("lop.select")
	plan := lop.Select(hp, w.cc, res)
	rec.end()
	if n := lop.NumMRJobs(plan.Blocks); n > 0 {
		out.err = fmt.Errorf("plan has %d MR jobs, want CP only", n)
		return out
	}
	ip := rt.New(rt.ModeValue, fs, w.cc, res)
	ip.Compiler = comp
	if rec != nil {
		ht := &hopTimer{rec: rec}
		ip.MemHook = ht.hook
		ht.last = time.Now()
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
	f, err := fs.Stat("/out/beta")
	if err != nil || f.Data == nil {
		out.err = fmt.Errorf("no coefficients written: %v", err)
		return out
	}
	out.beta = f.Data
	out.simS = ip.SimTime
	return out
}

func (w *train) check(p *pass) error {
	if w.refs == nil {
		w.refs = map[*trainCase]*matrix.Matrix{}
		w.systems = map[*trainCase]*normalSystem{}
	}
	for _, o := range p.outcome.([]trainOutcome) {
		p.simS = append(p.simS, o.simS)
		err := o.err
		if err == nil {
			ref, ok := w.refs[o.c]
			if !ok {
				if ref, err = reference(o.c); err != nil {
					return fmt.Errorf("%s: reference: %w", o.c.name, err)
				}
				w.refs[o.c] = ref
			}
			err = compareRel(o.beta, ref)
			if err == nil && o.c.normal {
				ns, ok := w.systems[o.c]
				if !ok {
					ns = newNormalSystem(o.c.x, o.c.y)
					w.systems[o.c] = ns
				}
				err = ns.check(o.beta, o.c.spec.Params["reg"].(float64))
			}
		}
		if err != nil {
			p.failed++
			p.unexpected++
			fmt.Fprintln(os.Stderr, "perfbench: FAIL", o.c.name, err)
		}
	}
	return nil
}

// reference runs the case through the naive reference interpreter and
// returns its coefficients.
func reference(c *trainCase) (*matrix.Matrix, error) {
	fs := c.stage()
	prog, err := dml.Parse(c.spec.Source)
	if err != nil {
		return nil, err
	}
	hp, err := hop.NewCompiler(fs, c.spec.Params).Compile(prog, c.spec.Source)
	if err != nil {
		return nil, err
	}
	ref, err := verify.RunReference(hp, fs)
	if err != nil {
		return nil, err
	}
	w, ok := ref.Writes["/out/beta"]
	if !ok {
		return nil, fmt.Errorf("reference wrote no coefficients")
	}
	// The reference keeps its dense row-major matrix in unexported fields;
	// reflection reads them without touching the package.
	v := reflect.ValueOf(w).Elem()
	rows, cols, a := int(v.FieldByName("rows").Int()), int(v.FieldByName("cols").Int()), v.FieldByName("a")
	m := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, a.Index(i*cols+j).Float())
		}
	}
	return m, nil
}

// compareRel checks every cell of got against want within refTol relative
// error (absolute near zero).
func compareRel(got, want *matrix.Matrix) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("shape %dx%d, reference %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			g, r := got.At(i, j), want.At(i, j)
			if math.Abs(g-r) > refTol*math.Max(1, math.Abs(r)) {
				return fmt.Errorf("cell (%d,%d) = %g, reference %g", i, j, g, r)
			}
		}
	}
	return nil
}

// normalSystem holds X'X and X'y of one training case, computed with plain
// loops so the check shares no kernel with the runtime.
type normalSystem struct {
	m        int
	xtx, xty []float64
	scale    float64 // largest |X'y| entry
}

func newNormalSystem(x, y *matrix.Matrix) *normalSystem {
	n, m := x.Rows(), x.Cols()
	ns := &normalSystem{m: m, xtx: make([]float64, m*m), xty: make([]float64, m)}
	row := make([]float64, m)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = x.At(i, j)
		}
		yi := y.At(i, 0)
		for j, xj := range row {
			if xj == 0 {
				continue
			}
			ns.xty[j] += xj * yi
			g := ns.xtx[j*m : (j+1)*m]
			for k, xk := range row {
				g[k] += xj * xk
			}
		}
	}
	for _, v := range ns.xty {
		ns.scale = math.Max(ns.scale, math.Abs(v))
	}
	return ns
}

// check verifies (X'X + lambda I) beta = X'y within refTol of the largest
// right-hand side entry.
func (ns *normalSystem) check(beta *matrix.Matrix, lambda float64) error {
	for j := 0; j < ns.m; j++ {
		lhs := lambda * beta.At(j, 0)
		for k := 0; k < ns.m; k++ {
			lhs += ns.xtx[j*ns.m+k] * beta.At(k, 0)
		}
		if d := math.Abs(lhs - ns.xty[j]); d > refTol*math.Max(1, ns.scale) {
			return fmt.Errorf("normal equation %d off by %g (scale %g)", j, d, ns.scale)
		}
	}
	return nil
}
