package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"elasticml/internal/conf"
	"elasticml/internal/server"
	"elasticml/internal/workload"
)

// daemon-open drives an in-process server.Server on loopback from
// daemonSessions client sessions on a fixed open-loop schedule below
// saturation, after priming the server's plan cache. The request mix
// follows the repository's load generator: every tenth request submits an
// XS job, every third of the rest probes the status of an accepted job, and
// the others ping. One operation is one submitted job, timed from when its
// submit was due until its result arrived, so a stall also charges the
// jobs queued behind it. Pings and status probes are the background
// traffic; their latency from the send is the server layer's, and the
// generator reports how late it ran.

const (
	daemonSessions = 2
	// daemonRate is the requests per second of each session.
	daemonRate = 100
	// daemonRequests is the requests of each session in one round.
	daemonRequests = 1000
	// daemonSubmitEvery makes one request in this many a job submission.
	daemonSubmitEvery = 10
	// resultWait bounds the wait for outstanding job results.
	resultWait = 60 * time.Second
	// daemonGap is the sequencer's simulated seconds between arrivals. It
	// exceeds any XS job's latency, so every job is simulated alone and its
	// latency does not depend on how wall-clock arrivals interleave with
	// the simulation.
	daemonGap = 1000
)

// daemonScripts is the submission pool, as in the repository's load mix.
// Column counts come from daemonCols, so the 12 distinct jobs all recur
// and the plan-cache hit count, which sets most of a job's simulated
// latency, does not depend on the seed.
var (
	daemonScripts = []string{"LinregDS", "LinregCG", "L2SVM"}
	daemonCols    = []int64{50, 75, 100, 125}
)

// request is one scheduled request.
type request struct {
	kind string // "ping", "status" or "submit"
	spec server.JobSpecWire
	pick int // status: index into the session's accepted jobs
}

type daemonOpen struct {
	sessions [][]request
	// live is the started and primed server the next pass uses.
	live *daemon
}

// sample is one completed request.
type sample struct {
	kind     string
	ms, late float64 // from send to reply; from due time to send
	shed     bool
}

// daemonOutcome is one pass against a fresh server.
type daemonOutcome struct {
	samples  []sample
	jobMS    []float64
	accepted []uint32
	results  map[uint32]int
	report   *workload.Report
	log      *server.RecordLog
	errs     []error
}

// setup draws the request schedule and starts a primed server for the
// first pass.
func (w *daemonOpen) setup(seed int64) error {
	w.sessions = make([][]request, daemonSessions)
	for s := range w.sessions {
		r := rand.New(rand.NewSource(seed*7919 + int64(s)))
		reqs := make([]request, daemonRequests)
		for i := range reqs {
			switch {
			case i%daemonSubmitEvery == 0:
				reqs[i] = request{kind: "submit", spec: server.JobSpecWire{
					Tenant:   fmt.Sprintf("t%d", r.Intn(8)),
					Script:   daemonScripts[r.Intn(len(daemonScripts))],
					Size:     "XS",
					Cols:     daemonCols[r.Intn(len(daemonCols))],
					Sparsity: 1.0,
				}}
			case i%3 == 0:
				reqs[i] = request{kind: "status", pick: r.Intn(1 << 30)}
			default:
				reqs[i] = request{kind: "ping"}
			}
		}
		w.sessions[s] = reqs
	}
	if w.live != nil {
		w.live.stop(&daemonOutcome{results: map[uint32]int{}})
	}
	var err error
	w.live, err = startDaemon()
	return err
}

func (w *daemonOpen) measure(rounds int, rec *recorder) (*pass, error) {
	sched := make([][]request, daemonSessions)
	for s := range sched {
		for r := 0; r < rounds; r++ {
			sched[s] = append(sched[s], w.sessions[s]...)
		}
	}
	d := w.live
	w.live = nil
	if d == nil {
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	o := d.play(sched, rec)
	p := &pass{wall: time.Since(start).Seconds(), layer: map[string]float64{}, outcome: o}
	d.stop(o)
	p.opMS = o.jobMS
	p.rss = []float64{statusMB("VmRSS:")}
	byKind := map[string][]float64{}
	for _, s := range o.samples {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
		p.layer["load.late_ms_max"] = max(p.layer["load.late_ms_max"], s.late)
		if s.shed {
			p.layer["server.sheds"]++
		}
	}
	p.layer["server.ping_ms_p50"] = percentile(byKind["ping"], 50)
	p.layer["server.status_ms_p50"] = percentile(byKind["status"], 50)
	p.layer["server.submit_ms_p50"] = percentile(byKind["submit"], 50)
	p.layer["server.submit_ms_tail"] = tailPercentile(byKind["submit"])
	return p, nil
}

// daemon is a running in-process server with its client sessions.
type daemon struct {
	srv     *server.Server
	served  chan error
	clients []*server.Client
	// primed are the cache-priming jobs, each of which has had its result.
	primed []uint32
}

// startDaemon starts a fresh server on loopback, connects daemonSessions
// clients, and primes the plan cache with every distinct job of the mix,
// as a long-running daemon's cache would be. It returns once every priming
// job has its result.
func startDaemon() (*daemon, error) {
	cc := conf.DefaultCluster()
	cc.Nodes = 2
	cc.MemPerNode, cc.MaxAlloc = 2*conf.GB, 2*conf.GB
	o := workload.DefaultOptions()
	o.Workers = runtime.NumCPU()
	seq, err := server.NewSequencer(cc, o, daemonGap)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		seq.Drain()
		return nil, err
	}
	d := &daemon{srv: server.NewServer(seq, server.ServerConfig{}, nil), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	for i := 0; i < daemonSessions; i++ {
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			d.stop(&daemonOutcome{results: map[uint32]int{}})
			return nil, fmt.Errorf("dial: %w", err)
		}
		d.clients = append(d.clients, c)
	}
	for _, script := range daemonScripts {
		for _, cols := range daemonCols {
			job, _, ch, err := d.clients[0].Submit(server.JobSpecWire{
				Tenant: "prime", Script: script, Size: "XS", Cols: cols, Sparsity: 1.0})
			if err == nil {
				if res, ok := <-ch; !ok || res == nil {
					err = fmt.Errorf("job %d: no result", job)
				}
			}
			if err != nil {
				d.stop(&daemonOutcome{results: map[uint32]int{}})
				return nil, fmt.Errorf("priming: %w", err)
			}
			d.primed = append(d.primed, job)
		}
	}
	return d, nil
}

// play runs the schedule, one session per entry, and waits for every
// accepted job's result. The wall time between two requests of a session
// is 1/daemonRate.
func (d *daemon) play(sched [][]request, rec *recorder) *daemonOutcome {
	out := &daemonOutcome{results: map[uint32]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now().Add(10 * time.Millisecond)
	for i := range sched {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			so := playSession(d.clients[i], sched[i], t0, i, rec)
			mu.Lock()
			out.samples = append(out.samples, so.samples...)
			out.jobMS = append(out.jobMS, so.jobMS...)
			out.accepted = append(out.accepted, so.accepted...)
			out.errs = append(out.errs, so.errs...)
			for job, n := range so.results {
				out.results[job] += n
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return out
}

// stop drains the server, closes the sessions, and records the drained
// report, the op log and the priming jobs in out.
func (d *daemon) stop(out *daemonOutcome) {
	out.report = d.srv.Shutdown(5 * time.Second)
	out.log = d.srv.Log()
	for _, job := range d.primed {
		out.accepted = append(out.accepted, job)
		out.results[job]++
	}
	for _, c := range d.clients {
		c.Close()
	}
	if err := <-d.served; !errors.Is(err, server.ErrServerClosed) {
		out.errs = append(out.errs, fmt.Errorf("serve: %w", err))
	}
}

// sessionOutcome is one session's part of a pass.
type sessionOutcome struct {
	samples  []sample
	jobMS    []float64 // per accepted job: from the submit's due time to its result
	accepted []uint32
	results  map[uint32]int
	errs     []error
}

// playSession sends each request at its due time and waits for the results
// of the jobs it submitted. Session s sends its k-th request at
// t0 + (k + s/daemonSessions)/daemonRate, so the sessions alternate.
func playSession(c *server.Client, reqs []request, t0 time.Time, session int, rec *recorder) sessionOutcome {
	so := sessionOutcome{results: map[uint32]int{}}
	var mu sync.Mutex // guards jobMS, results and errs against the result waiters
	var waiters sync.WaitGroup
	interval := time.Second / daemonRate
	t0 = t0.Add(time.Duration(session) * interval / daemonSessions)
	for k, rq := range reqs {
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		var err error
		switch {
		case rq.kind == "submit":
			var job uint32
			var ch <-chan *server.JobResult
			job, _, ch, err = c.Submit(rq.spec)
			if err == nil {
				so.accepted = append(so.accepted, job)
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					select {
					case res, ok := <-ch:
						at := time.Now()
						mu.Lock()
						if ok && res != nil {
							so.results[res.Job]++
							so.jobMS = append(so.jobMS, ms(at.Sub(due)))
						}
						mu.Unlock()
					case <-time.After(resultWait):
						mu.Lock()
						so.errs = append(so.errs, fmt.Errorf("job %d: no result within %v", job, resultWait))
						mu.Unlock()
					}
				}()
			}
		case rq.kind == "status" && len(so.accepted) > 0:
			_, err = c.Status(so.accepted[rq.pick%len(so.accepted)])
		default:
			rq.kind = "ping"
			err = c.Ping()
		}
		done := time.Now()
		rec.record("server."+rq.kind, session*len(reqs)+k, sent, done)
		s := sample{kind: rq.kind, ms: ms(done.Sub(sent)), late: ms(sent.Sub(due))}
		if errors.Is(err, server.ErrOverloaded) {
			s.shed = true
		} else if err != nil {
			mu.Lock()
			so.errs = append(so.errs, fmt.Errorf("%s: %w", rq.kind, err))
			mu.Unlock()
		}
		so.samples = append(so.samples, s)
	}
	waiters.Wait()
	return so
}

// check replays the recorded op log offline and compares the report bytes
// with the drained one, and verifies that every accepted job got exactly
// one result. A failed check fails every job of the pass.
func (w *daemonOpen) check(p *pass) error {
	o := p.outcome.(*daemonOutcome)
	var problems []string
	for _, err := range o.errs {
		problems = append(problems, err.Error())
	}
	seen := map[uint32]bool{}
	for _, job := range o.accepted {
		if seen[job] {
			problems = append(problems, fmt.Sprintf("job %d accepted twice", job))
		}
		seen[job] = true
		if n := o.results[job]; n != 1 {
			problems = append(problems, fmt.Sprintf("job %d: %d results", job, n))
		}
	}
	if len(o.results) != len(o.accepted) {
		problems = append(problems, fmt.Sprintf("%d results for %d accepted jobs", len(o.results), len(o.accepted)))
	}
	if o.report == nil || len(o.report.Tenants) != len(o.accepted) {
		problems = append(problems, "drained report does not list every accepted job")
	} else {
		replayed, err := server.Replay(o.log)
		var a, b bytes.Buffer
		switch {
		case err != nil:
			problems = append(problems, "replay: "+err.Error())
		case o.report.WriteJSON(&a) != nil || replayed.WriteJSON(&b) != nil:
			problems = append(problems, "report encoding failed")
		case !bytes.Equal(a.Bytes(), b.Bytes()):
			problems = append(problems, "replayed report differs from the drained report")
		}
		for _, t := range o.report.Tenants {
			if t.Served {
				p.simS = append(p.simS, t.Latency)
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		fmt.Fprintln(os.Stderr, "perfbench: FAIL daemon-open:", problems[0], fmt.Sprintf("(%d problems)", len(problems)))
		p.failed = len(p.opMS)
		p.unexpected = p.failed
	}
	return nil
}
