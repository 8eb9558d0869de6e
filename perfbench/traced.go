package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"ascoma"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
	wload "ascoma/internal/workload"
)

// traceDir receives each traced run's spans.json and cpu.pprof; it lies
// in the build directory, which the checkout ignores.
const traceDir = ".bench_build/trace"

// tracedWarmOps is the warm request count of each serve_mix cycle in a
// traced run; both cycles do the same work so their wall times compare.
const tracedWarmOps = 4000

// runTraced measures the per-layer metrics. It runs untraced cycles and
// then the same cycle again with spans and a CPU profile (the difference is
// the tracing overhead), folds the profile per package, and finally times
// each layer in isolation with probes that run after the profile stops.
func runTraced(ctx context.Context, w *workload, o options, refs *refs) (*tally, error) {
	env, st, err := setup(w)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newTally()
	rep.set("host.calib_us", calibrate(), "us", nproc*calibChunks)
	rep.set("workload.compile_s", st.compile.Seconds(), "s", 1)
	rep.set("estimate.profile_s", st.profile.Seconds(), "s", 1)

	dir := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	oneCycle := func(srv *server, m *measurements, tr *tracer) (*cycle, time.Duration, error) {
		t0 := time.Now()
		var c *cycle
		var err error
		if w.serve {
			c, err = serveCycle(ctx, w, env, srv, o.seed, time.Time{}, tracedWarmOps, m, refs, rep, tr)
		} else {
			c, err = sweepCycle(ctx, w, env, o.seed*1000, warmOpsPerSweep, m, refs, rep, tr)
		}
		return c, time.Since(t0), err
	}

	// A fresh server per cycle, so every cycle's cold phase simulates;
	// the sweeps build their own cache.
	var servers []*server
	defer func() {
		for _, s := range servers {
			s.close()
		}
	}()
	freshServer := func() (*server, error) {
		if !w.serve {
			return nil, nil
		}
		s, err := startServer(ctx)
		if err == nil {
			servers = append(servers, s)
		}
		return s, err
	}

	// The first cycle pays the process's warm-up (machine arenas, heap
	// growth), so the overhead compares the second, untraced cycle with
	// the third, traced one. The warm tails come from the first.
	plain := &measurements{}
	if _, _, err := oneCycle(env.srv, plain, nil); err != nil {
		return nil, err
	}
	plain.tails(rep)
	srv, err := freshServer()
	if err != nil {
		return nil, err
	}
	_, untraced, err := oneCycle(srv, &measurements{}, nil)
	if err != nil {
		return nil, err
	}
	if srv, err = freshServer(); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	tr := newTracer(w.name)
	m := &measurements{}
	c, traced, err := oneCycle(srv, m, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if err := tr.finish(filepath.Join(dir, "spans.json")); err != nil {
		return nil, err
	}
	rep.set("trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%", 1)
	rep.set("trace.spans", float64(len(tr.spans)), "count", 1)
	rep.set("trace.harness_self_pct", harnessSelfPct(tr.spans), "%", len(tr.spans))

	shares, err := foldProfile(prof.Name())
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		rep.set(l+".cpu_share", shares[l], "%", 1)
	}
	workCounts(rep, c, &m.runCold)
	rep.set("runcache.hit_ratio_cold", c.cold.HitRate(), "ratio", int(c.cold.Lookups()))
	rep.set("runcache.hit_ratio_warm", c.warm.HitRate(), "ratio", int(c.warm.Lookups()))
	if err := probes(ctx, w, env, c, rep); err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	return rep, nil
}

// workCounts sums the simulated work of the cycle's grid from the public
// stats.Node fields. The counts repeat exactly from run to run; only
// machine.refs_per_s and machine.run_*_ms depend on the host.
func workCounts(rep *tally, c *cycle, runs *samples) {
	var refs, l1, remote, inval, faults, up, down, daemon, scanned, reclaimed int64
	for _, res := range c.results {
		for i := range res.Nodes {
			n := &res.Nodes[i]
			refs += n.SharedRefs + n.PrivateRefs
			l1 += n.L1Hits
			remote += n.Misses[stats.Cold] + n.Misses[stats.ConfCapc] // satisfied by a remote home
			inval += n.Invalidations
			faults += n.PageFaults
			up += n.Upgrades
			down += n.Downgrades
			daemon += n.DaemonRuns
			scanned += n.DaemonScanned
			reclaimed += n.DaemonReclaimed
		}
	}
	cells := len(c.results)
	rep.set("machine.refs", float64(refs), "count", cells)
	var busy float64
	runs.mu.Lock()
	for _, d := range runs.xs {
		busy += d
	}
	runs.mu.Unlock()
	rep.set("machine.refs_per_s", float64(refs)/(busy/float64(time.Second)), "1/s", cells)
	n := runs.len()
	rep.set("machine.run_p50_ms", runs.quantile(0.5, time.Millisecond), "ms", n)
	rep.set("machine.run_p90_ms", runs.quantile(tailQuantile(n, 0.9), time.Millisecond), "ms", n)
	rep.set("cache.l1_hit_ratio", ratio(l1, refs), "ratio", cells)
	rep.set("directory.remote_misses", float64(remote), "count", cells)
	rep.set("directory.invalidations", float64(inval), "count", cells)
	rep.set("vm.page_faults", float64(faults), "count", cells)
	rep.set("vm.upgrades", float64(up), "count", cells)
	rep.set("vm.downgrades", float64(down), "count", cells)
	rep.set("vm.daemon_runs", float64(daemon), "count", cells)
	rep.set("vm.reclaim_ratio", ratio(reclaimed, scanned), "ratio", cells)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probe times f over reps calls and returns the median per-call time of
// batches of batch calls.
func probe(reps, batch int, f func(i int) error) (time.Duration, error) {
	var per []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(r*batch + i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t))/float64(batch))
	}
	return time.Duration(median(per)), nil
}

// probes times each layer alone, outside the profiled cycle, over the
// cycle's filled cache.
func probes(ctx context.Context, w *workload, e *env, c *cycle, rep *tally) error {
	apps := w.apps()
	cells := w.cells()

	// Stream drain: every node's compiled stream of every app, end to end.
	var refs int64
	t0 := time.Now()
	for _, app := range apps {
		gen, err := wload.New(app, w.scale)
		if err != nil {
			return err
		}
		for n := 0; n < gen.Nodes(); n++ {
			s := gen.Stream(n)
			for _, ok := s.Next(); ok; _, ok = s.Next() {
				refs++
			}
			wload.Recycle(s)
		}
	}
	rep.set("workload.drain_ns_per_ref", float64(time.Since(t0))/float64(refs), "ns", int(refs))

	d, err := probe(20, 1000, func(i int) error {
		cl := cells[i%len(cells)]
		if e.ests[cl.app].Predict(cl.arch, cl.pressure).ExecTime <= 0 {
			return fmt.Errorf("probe: non-positive prediction for %v", cl)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("estimate.predict_ns", float64(d.Nanoseconds()), "ns", 20)

	keys := make([]runcache.Key, len(cells))
	d, err = probe(20, len(cells), func(i int) error {
		k, err := runcache.KeyOf(w.config(cells[i%len(cells)]))
		keys[i%len(cells)] = k
		return err
	})
	if err != nil {
		return err
	}
	rep.set("runcache.keyof_us", float64(d)/float64(time.Microsecond), "us", 20)
	miss := func(context.Context) (*ascoma.Result, error) { return nil, errors.New("probe: cache miss") }
	d, err = probe(20, len(cells), func(i int) error {
		_, err := c.runner.Cache.Do(ctx, keys[i%len(cells)], miss)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("runcache.hit_us", float64(d)/float64(time.Microsecond), "us", 20)

	opts := w.reportOptions()
	opts.Runner = c.runner
	d, err = probe(10, len(apps), func(i int) error {
		var buf bytes.Buffer
		return report.Figure(ctx, &buf, apps[i%len(apps)], opts)
	})
	if err != nil {
		return err
	}
	rep.set("report.render_ms", float64(d)/float64(time.Millisecond), "ms", 10)

	return serveProbes(ctx, w, e, rep)
}

// serveProbes time the three endpoints of ascoma-serve twice: through
// Handler().ServeHTTP directly (no socket) and over a loopback connection.
// The difference is the transport's share. They use serve_mix's request
// shapes on every workload; a sweep fills the one panel they need first.
func serveProbes(ctx context.Context, w *workload, e *env, rep *tally) error {
	sw := workloads["serve_mix"]
	srv := e.srv
	if srv == nil {
		var err error
		if srv, err = startServer(ctx); err != nil {
			return err
		}
		defer srv.close()
	}
	const app = "fft"
	reqs := map[string]request{
		"run":      runRequest(sw, cell{app, ascoma.ASCOMA, 70}),
		"estimate": estimateRequest(sw, app),
		"figure":   figureRequest(sw, app),
	}
	h := srv.srv.Handler()
	direct := func(r request) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)).WithContext(ctx))
		return rec.Code, rec.Body.Bytes()
	}
	// Warm the cache: the figure request fills the panel's cells.
	for _, r := range reqs {
		if code, body := direct(r); code != http.StatusOK {
			return fmt.Errorf("serve probe %s %s: %d %s", r.method, r.path, code, body)
		}
	}
	for _, name := range []string{"run", "estimate", "figure"} {
		r := reqs[name]
		dd, err := probe(15, 20, func(int) error {
			if code, _ := direct(r); code != http.StatusOK {
				return fmt.Errorf("serve probe %s: %d", r.path, code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		dl, err := probe(15, 20, func(int) error {
			code, _, err := srv.do(ctx, r.method, r.path, r.body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("serve probe %s: %d", r.path, code)
			}
			return err
		})
		if err != nil {
			return err
		}
		rep.set("serve."+name+"_handler_us", float64(dd)/float64(time.Microsecond), "us", 15)
		rep.set("serve."+name+"_transport_share", float64(dl-dd)/float64(dl), "ratio", 15)
	}
	return nil
}
