package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/jobs"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
)

// measurements accumulates one run's samples for the end-to-end metrics.
type measurements struct {
	runCold, runWarm, estimate, figure samples
	sweeps                             []float64 // seconds per grid fill and render
	warmOps                            atomic.Int64
	warmWall                           time.Duration
	errPct                             float64
	liveHeaps                          []float64 // MB live after each cold phase

	// clock, when set, calibrates the host at the end of each cold phase
	// (calib.go).
	clock *hostClock
}

// endCold closes a cycle's cold phase: it calibrates the host when the run
// scales its timings, then collects the heap, so the warm phase starts
// from a collected heap and the cold phase's live heap (the filled result
// cache and the per-process memos) can be read. The second collection
// empties the sync.Pools (the machine arena keeps released machines in
// one), whose contents would otherwise count or not depending on where
// the pools' victim cycle stood.
func (m *measurements) endCold() {
	if m.clock != nil {
		m.clock.sample()
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.liveHeaps = append(m.liveHeaps, float64(ms.HeapAlloc)/(1<<20))
}

// endToEnd reports the end-to-end metrics, every timing multiplied by the
// run's host factor f (calib.go; 1 reports raw times).
func (m *measurements) endToEnd(rep *tally, f float64) {
	rep.set("sweep_s", median(m.sweeps)*f, "s", len(m.sweeps))
	rep.set("estimate_err_pct", m.errPct, "%", 1)
	rep.set("live_heap_mb", median(m.liveHeaps), "MB", len(m.liveHeaps))
	setLatency(rep, "run_cold_p50_ms", &m.runCold, 0.5, f)
	setLatency(rep, "run_warm_p50_ms", &m.runWarm, 0.5, f)
	setLatency(rep, "estimate_p50_ms", &m.estimate, 0.5, f)
	setLatency(rep, "figure_warm_p50_ms", &m.figure, 0.5, f)
	rep.set("serve_rps", m.rps()/f, "1/s", int(m.warmOps.Load()))
}

// rps is the warm requests per second of wall time, unscaled.
func (m *measurements) rps() float64 {
	return float64(m.warmOps.Load()) / m.warmWall.Seconds()
}

// tails are the tails that do not repeat within a tenth from run to
// run on a shared host (the cold p90 and the warm p99s); the traced run
// reports them as per-layer numbers.
func (m *measurements) tails(rep *tally) {
	setLatency(rep, "run_cold_p90_ms", &m.runCold, 0.9, 1)
	setLatency(rep, "run_warm_p99_ms", &m.runWarm, 0.99, 1)
	setLatency(rep, "estimate_p99_ms", &m.estimate, 0.99, 1)
	setLatency(rep, "figure_warm_p99_ms", &m.figure, 0.99, 1)
}

// setLatency reports the q-quantile of s in milliseconds; a tail falls back
// to the highest quantile with ten samples beyond it.
func setLatency(rep *tally, name string, s *samples, q, f float64) {
	n := s.len()
	if q > 0.5 {
		q = tailQuantile(n, q)
	}
	rep.set(name, s.quantile(q, time.Millisecond)*f, "ms", n)
}

// cycle is what one pass over the grid leaves behind for the traced run's
// counts and probes.
type cycle struct {
	runner  *runcache.Runner // over the filled cache
	results map[cell]*ascoma.Result
	wall    time.Duration
	// hits and lookups of the cache during the cold and warm phases.
	cold, warm runcache.Stats
}

// warmOpsPerSweep is the size of the warm pass after each sweep.
const warmOpsPerSweep = 10000

// serveWarm is how long each serve_mix cycle runs its warm phase.
const serveWarm = 4 * time.Second

// measure repeats cycles while another fits in the run's budget. Each
// cycle starts from an empty result cache (serve_mix: a fresh server; the
// set-up's server serves the first), so every cycle's cold phase simulates
// the whole grid again. The host is calibrated after each phase.
func measure(ctx context.Context, w *workload, e *env, o options, refs *refs, rep *tally, hc *hostClock) (*measurements, error) {
	m := &measurements{clock: hc}
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for i := int64(0); ; i++ {
		t := time.Now()
		seed := o.seed*1000 + i
		var err error
		switch {
		case !w.serve:
			_, err = sweepCycle(ctx, w, e, seed, warmOpsPerSweep, m, refs, rep, nil)
		case i == 0:
			_, err = serveCycle(ctx, w, e, e.srv, seed, time.Now().Add(serveWarm), 0, m, refs, rep, nil)
		default:
			var srv *server
			if srv, err = startServer(ctx); err == nil {
				_, err = serveCycle(ctx, w, e, srv, seed, time.Now().Add(serveWarm), 0, m, refs, rep, nil)
				srv.close()
			}
		}
		if err != nil {
			return nil, err
		}
		hc.sample()
		if time.Since(start)+time.Since(t) > budget {
			return m, nil
		}
	}
}

// sweepCycle fills the grid cold on a fresh cache, app by app — each
// app's cells through runcache.Runner on `nproc` workers, then its panel
// rendered with report.Figure over the filled cache, as `sweep -scale 4`
// renders it — and then runs a warm pass of in-process requests over the
// filled cache.
func sweepCycle(ctx context.Context, w *workload, e *env, seed int64, warmOps int, m *measurements, refs *refs, rep *tally, tr *tracer) (*cycle, error) {
	cache, err := runcache.New(0, "")
	if err != nil {
		return nil, err
	}
	runner := &runcache.Runner{Cache: cache, Jobs: nproc}
	opts := w.reportOptions()
	opts.Runner = runner
	c := &cycle{runner: runner, results: map[cell]*ascoma.Result{}}
	figures := map[string][]byte{}

	runtime.GC() // each phase starts from a collected heap, as in a fresh process
	root := tr.begin(0, "sweep")
	t0 := time.Now()
	for _, app := range w.apps() {
		cells := appCells(app)
		before := cache.Stats()
		var mu sync.Mutex
		forEach(len(cells), func(i int) {
			cfg := w.config(cells[i])
			sp := tr.begin(root.id, "runcache.Runner.Run")
			t := time.Now()
			res, err := runner.Run(ctx, cfg)
			d := time.Since(t)
			sp.end()
			if err != nil {
				rep.fail("%v: %v", cells[i], err)
				return
			}
			m.runCold.add(d)
			mu.Lock()
			c.results[cells[i]] = res
			mu.Unlock()
		})
		c.cold = addStats(c.cold, statsDelta(cache.Stats(), before))
		var buf bytes.Buffer
		sp := tr.begin(root.id, "report.Figure")
		err := report.Figure(ctx, &buf, app, opts)
		sp.end()
		if err != nil {
			rep.fail("figure %s: %v", app, err)
			continue
		}
		figures[app] = buf.Bytes()
	}
	c.wall = time.Since(t0)
	root.end()
	m.sweeps = append(m.sweeps, c.wall.Seconds())

	execTime := map[cell]int64{}
	for cl, res := range c.results {
		b, err := json.Marshal(res.Machine)
		if err != nil {
			return nil, err
		}
		rep.check(refs.match(refs.Cells, cl.String(), digest(b)), "%s %v: statistics differ from the pinned digest", w.name, cl)
		execTime[cl] = res.ExecTime
	}
	for _, app := range w.apps() {
		rep.check(refs.match(refs.Figures, app, digest(figures[app])), "%s figure %s differs from the pinned render", w.name, app)
	}
	if m.errPct, err = estimateErrPct(w, e, execTime); err != nil {
		return nil, err
	}

	before := cache.Stats()
	m.endCold()
	warm := tr.begin(0, "warm")
	warmPass(ctx, w, c, figures, seed, warmOps, m, refs, rep, tr, warm.id)
	warm.end()
	c.warm = statsDelta(cache.Stats(), before)
	rep.check(c.warm.Sims == 0, "%s: the warm pass simulated %d cells", w.name, c.warm.Sims)
	return c, nil
}

// warmPass runs the serve_mix request mix in-process: `nproc` closed-loop
// workers each send warmOps/nproc requests drawn from their own seeded
// generator, calling the functions the server's endpoints call.
func warmPass(ctx context.Context, w *workload, c *cycle, figures map[string][]byte, seed int64, warmOps int, m *measurements, refs *refs, rep *tally, tr *tracer, parent int64) {
	cells := w.cells()
	opts := w.reportOptions()
	opts.Runner = c.runner
	var mu sync.Mutex
	firstEst := map[string][]estimate.Prediction{}
	t0 := time.Now()
	forEach(nproc, func(worker int) {
		g := newMix(seed, worker, len(cells), w.apps())
		for i := 0; i < warmOps/nproc; i++ {
			op := g.next()
			switch op.kind {
			case opRun:
				cl := cells[op.cell]
				sp := tr.begin(parent, "runcache.Runner.Run")
				t := time.Now()
				res, err := c.runner.Run(ctx, w.config(cl))
				m.runWarm.add(time.Since(t))
				sp.end()
				rep.check(err == nil && res == c.results[cl], "%s warm run %v: %v (not the cold result)", w.name, cl, err)
			case opEstimate:
				spec := jobs.EstimateSpec{Workload: op.app, Scale: w.scale, Tiers: w.tiers, PagePolicy: w.policy}
				sp := tr.begin(parent, "jobs.EstimateSpec.Predictions")
				t := time.Now()
				preds, err := spec.Predictions()
				m.estimate.add(time.Since(t))
				sp.end()
				if err != nil {
					rep.fail("%s estimate %s: %v", w.name, op.app, err)
					continue
				}
				mu.Lock()
				first, seen := firstEst[op.app]
				if !seen {
					firstEst[op.app] = preds
				}
				mu.Unlock()
				if !seen {
					b, err := json.Marshal(preds)
					rep.check(err == nil && refs.match(refs.Estimates, op.app, digest(b)), "%s estimate %s differs from the pinned answer", w.name, op.app)
					continue
				}
				rep.check(slices.Equal(preds, first), "%s estimate %s changed between calls", w.name, op.app)
			case opFigure:
				var buf bytes.Buffer
				sp := tr.begin(parent, "report.Figure")
				t := time.Now()
				err := report.Figure(ctx, &buf, op.app, opts)
				m.figure.add(time.Since(t))
				sp.end()
				rep.check(err == nil && bytes.Equal(buf.Bytes(), figures[op.app]), "%s warm figure %s: %v (differs from the cold render)", w.name, op.app, err)
			}
			m.warmOps.Add(1)
		}
	})
	m.warmWall += time.Since(t0)
}

// forEach runs f(0..n-1) on `nproc` workers and waits for them.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < min(nproc, n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

type opKind int

const (
	opEstimate opKind = iota
	opRun
	opFigure
)

type op struct {
	kind opKind
	cell int    // opRun: index into the grid's cells
	app  string // opEstimate, opFigure
}

// mix generates one client's warm request sequence. Every block of ten
// requests holds 4 estimates, 5 runs and 1 figure in a seeded order, and
// the estimates and figures each go through the apps in seeded rounds, so
// the mix and its cost do not drift with the seed; runs draw their cells
// Zipf-distributed over a seeded popularity order.
type mix struct {
	r                *rand.Rand
	zipf             *rand.Zipf
	rank             []int
	apps             []string
	block            []opKind
	estApps, figApps []string
}

// mixBlock is one block of the mix: 40% estimates, 50% runs, 10% figures.
var mixBlock = []opKind{opEstimate, opEstimate, opEstimate, opEstimate, opRun, opRun, opRun, opRun, opRun, opFigure}

func newMix(seed int64, client, cells int, apps []string) *mix {
	r := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &mix{
		r:    r,
		zipf: rand.NewZipf(r, 1.1, 1, uint64(cells-1)),
		rank: rand.New(rand.NewSource(seed)).Perm(cells),
		apps: apps,
	}
}

func (g *mix) next() op {
	if len(g.block) == 0 {
		g.block = shuffled(g.r, mixBlock)
	}
	k := g.block[0]
	g.block = g.block[1:]
	switch k {
	case opEstimate:
		return op{kind: opEstimate, app: g.nextApp(&g.estApps)}
	case opRun:
		return op{kind: opRun, cell: g.rank[g.zipf.Uint64()]}
	default:
		return op{kind: opFigure, app: g.nextApp(&g.figApps)}
	}
}

// nextApp takes the next app of a round, starting a new seeded round when
// the last is used up.
func (g *mix) nextApp(round *[]string) string {
	if len(*round) == 0 {
		*round = shuffled(g.r, g.apps)
	}
	a := (*round)[0]
	*round = (*round)[1:]
	return a
}

func shuffled[T any](r *rand.Rand, xs []T) []T {
	out := slices.Clone(xs)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
