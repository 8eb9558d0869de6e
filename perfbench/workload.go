package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/mem"
	"ascoma/internal/params"
	"ascoma/internal/report"
	wload "ascoma/internal/workload"
)

// workload is one named benchmark input: a figure grid at a scale, on flat
// or tiered memory, driven either in-process (the sweeps) or through an
// in-process ascoma-serve (serve_mix).
type workload struct {
	name   string
	scale  int
	tiers  []ascoma.TierSpec
	policy string
	serve  bool
}

var workloads = map[string]*workload{
	"figsweep":     {name: "figsweep", scale: 4},
	"tiered_sweep": {name: "tiered_sweep", scale: 4, tiers: mustTiers("30:40:60,70:120:300"), policy: "hybrid"},
	"serve_mix":    {name: "serve_mix", scale: 8, serve: true},
}

func mustTiers(s string) []ascoma.TierSpec {
	t, err := ascoma.ParseTiers(s)
	if err != nil {
		panic(err)
	}
	return t
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// nproc is the simulation concurrency and the client count: one per
// hardware thread, as sweep and ascoma-serve default to.
var nproc = runtime.NumCPU()

func (w *workload) apps() []string { return report.FigureApps(0) }

// cell is one (app, arch, pressure) point of the figure grid.
type cell struct {
	app      string
	arch     ascoma.Arch
	pressure int
}

func (c cell) String() string { return fmt.Sprintf("%v/%s@%d", c.arch, c.app, c.pressure) }

// gridArchs are the pressure-swept architectures of a figure panel; the
// CC-NUMA baseline runs once at 50% (report.Figure's grid).
var (
	gridArchs     = []ascoma.Arch{ascoma.SCOMA, ascoma.ASCOMA, ascoma.VCNUMA, ascoma.RNUMA}
	gridPressures = []int{10, 30, 50, 70, 90}
)

// appCells returns one app's panel in report.Figure's dispatch order.
func appCells(app string) []cell {
	out := []cell{{app, ascoma.CCNUMA, 50}}
	for _, a := range gridArchs {
		for _, p := range gridPressures {
			out = append(out, cell{app, a, p})
		}
	}
	return out
}

// cells returns the whole grid: six apps, 21 cells each.
func (w *workload) cells() []cell {
	var out []cell
	for _, app := range w.apps() {
		out = append(out, appCells(app)...)
	}
	return out
}

func (w *workload) config(c cell) ascoma.Config {
	return ascoma.Config{Arch: c.arch, Workload: c.app, Pressure: c.pressure, Scale: w.scale,
		Tiers: w.tiers, PagePolicy: w.policy}
}

func (w *workload) reportOptions() report.Options {
	return report.Options{Scale: w.scale, Tiers: w.tiers, PagePolicy: w.policy}
}

// env is the state set-up builds: one estimator per app (for the estimate
// calls and the estimator-error metric) and, for serve_mix, the server.
type env struct {
	ests map[string]*estimate.Estimator
	srv  *server
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.close()
	}
}

type setupTimes struct {
	compile, profile, server time.Duration
}

func (s setupTimes) total() time.Duration { return s.compile + s.profile + s.server }

// setup does the first-use work a user of the workload pays once per
// process: building and compiling every app's reference streams, replaying
// them into estimator profiles, and (serve_mix) starting the server.
func setup(w *workload) (*env, setupTimes, error) {
	var st setupTimes
	e := &env{ests: map[string]*estimate.Estimator{}}

	t0 := time.Now()
	for _, app := range w.apps() {
		gen, err := wload.New(app, w.scale)
		if err != nil {
			return nil, st, err
		}
		for n := 0; n < gen.Nodes(); n++ {
			wload.Recycle(gen.Stream(n)) // the first Stream compiles the node's program
		}
	}
	st.compile = time.Since(t0)

	t0 = time.Now()
	pol, err := mem.ParsePolicy(w.policy)
	if err != nil {
		return nil, st, err
	}
	for _, app := range w.apps() {
		prof, err := wload.ProfileFor(app, w.scale)
		if err != nil {
			return nil, st, err
		}
		est, err := estimate.New(prof, params.Default())
		if err != nil {
			return nil, st, err
		}
		if len(w.tiers) > 0 || w.policy != "" {
			est.SetTiers(w.tiers, pol)
		}
		e.ests[app] = est
	}
	st.profile = time.Since(t0)

	if w.serve {
		t0 = time.Now()
		srv, err := startServer(context.Background())
		if err != nil {
			return nil, st, err
		}
		e.srv = srv
		st.server = time.Since(t0)
	}
	return e, st, nil
}

// estimateErrPct is the mean absolute relative error, in percent, of the
// estimator's RelTime against the simulated relative time over the grid's
// non-baseline cells. execTime maps each cell to its simulated execution
// time.
func estimateErrPct(w *workload, e *env, execTime map[cell]int64) (float64, error) {
	var sum float64
	var n int
	for _, app := range w.apps() {
		base := execTime[cell{app, ascoma.CCNUMA, 50}]
		if base <= 0 {
			return 0, fmt.Errorf("estimate error: no baseline for %s", app)
		}
		for _, c := range appCells(app)[1:] {
			sim := float64(execTime[c]) / float64(base)
			pred := e.ests[app].Predict(c.arch, c.pressure).RelTime
			d := pred - sim
			if d < 0 {
				d = -d
			}
			sum += d / sim
			n++
		}
	}
	return 100 * sum / float64(n), nil
}
