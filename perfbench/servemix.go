package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ascoma"
	"ascoma/internal/jobs"
	"ascoma/internal/runcache"
	"ascoma/internal/serve"
)

// server is one in-process ascoma-serve on a loopback listener, with a
// fresh memory result cache, and the keep-alive client that drives it.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
}

func startServer(ctx context.Context) (*server, error) {
	cache, err := runcache.New(0, "")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Cache: cache, Jobs: nproc, Timeout: 2 * time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		done:   make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nproc, DisableCompression: true}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	status, body, err := s.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil || status != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("server start: healthz %d %q: %v", status, body, err)
	}
	return s, nil
}

// close drains the HTTP server, waits for its Serve goroutine, and cancels
// the server's jobs.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //ascoma:allow-errdrop a drain timeout only leaves connections to the exiting process
	<-s.done
	s.srv.Close()
	s.client.CloseIdleConnections()
}

func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// request is one HTTP call of the mix.
type request struct {
	method, path string
	body         []byte
}

func runRequest(w *workload, c cell) request {
	b, _ := json.Marshal(jobs.RunSpec{Arch: c.arch.String(), Workload: c.app, Pressure: c.pressure, Scale: w.scale}) //ascoma:allow-errdrop a struct of strings and ints always encodes
	return request{http.MethodPost, "/api/v1/run", b}
}

func estimateRequest(w *workload, app string) request {
	b, _ := json.Marshal(jobs.EstimateSpec{Workload: app, Scale: w.scale}) //ascoma:allow-errdrop a struct of strings and ints always encodes
	return request{http.MethodPost, "/api/v1/estimate", b}
}

func figureRequest(w *workload, app string) request {
	return request{http.MethodGet, fmt.Sprintf("/api/v1/figure/%s?scale=%d", app, w.scale), nil}
}

// serveCycle drives srv through both phases: every grid cell requested
// once (all misses, in a seeded order) and then the warm mix on `nproc`
// closed-loop clients until warmUntil, or for warmOps requests when
// warmOps > 0.
func serveCycle(ctx context.Context, w *workload, e *env, srv *server, seed int64, warmUntil time.Time, warmOps int, m *measurements, refs *refs, rep *tally, tr *tracer) (*cycle, error) {
	cells := w.cells()
	order := rand.New(rand.NewSource(seed)).Perm(len(cells))
	cold := make([][]byte, len(cells))
	cache := srv.srv.Cache()
	before := cache.Stats()

	runtime.GC() // each phase starts from a collected heap, as in a fresh process
	root := tr.begin(0, "cold")
	t0 := time.Now()
	forEach(len(cells), func(i int) {
		k := order[i]
		req := runRequest(w, cells[k])
		sp := tr.begin(root.id, "http POST /api/v1/run")
		t := time.Now()
		status, body, err := srv.do(ctx, req.method, req.path, req.body)
		d := time.Since(t)
		sp.end()
		if err != nil || status != http.StatusOK {
			rep.fail("cold run %v: %d %v", cells[k], status, err)
			return
		}
		m.runCold.add(d)
		cold[k] = body
	})
	c := &cycle{runner: &runcache.Runner{Cache: cache, Jobs: nproc}, results: map[cell]*ascoma.Result{}, wall: time.Since(t0)}
	root.end()
	m.sweeps = append(m.sweeps, c.wall.Seconds())
	c.cold = statsDelta(cache.Stats(), before)

	execTime := map[cell]int64{}
	for k, cl := range cells {
		rep.check(cold[k] != nil && refs.match(refs.Cells, cl.String(), digest(cold[k])), "serve_mix cold run %v differs from the pinned body", cl)
		var rr struct {
			Result struct {
				ExecTime int64 `json:"execTimeCycles"`
			} `json:"result"`
		}
		if err := json.Unmarshal(cold[k], &rr); err != nil {
			return nil, fmt.Errorf("cold run %v: %w", cl, err)
		}
		execTime[cl] = rr.Result.ExecTime
		key, err := runcache.KeyOf(w.config(cl))
		if err != nil {
			return nil, err
		}
		res, err := cache.Fetch(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("cold run %v not cached: %w", cl, err)
		}
		c.results[cl] = res
	}
	var err error
	if m.errPct, err = estimateErrPct(w, e, execTime); err != nil {
		return nil, err
	}

	// The first warm answer for each estimate and figure is checked
	// against the pinned digest; later ones must repeat it byte for byte,
	// as every warm run must repeat its cold body.
	var mu sync.Mutex
	firstEst, firstFig := map[string][]byte{}, map[string][]byte{}
	verify := func(first map[string][]byte, table map[string]string, key string, body []byte) bool {
		mu.Lock()
		want, seen := first[key]
		if !seen {
			first[key] = body
		}
		mu.Unlock()
		if !seen {
			return refs.match(table, key, digest(body))
		}
		return bytes.Equal(body, want)
	}

	before = cache.Stats()
	m.endCold()
	warm := tr.begin(0, "warm")
	t0 = time.Now()
	forEach(nproc, func(client int) {
		g := newMix(seed, client, len(cells), w.apps())
		for i := 0; warmOps > 0 && i < warmOps/nproc || warmOps == 0 && time.Now().Before(warmUntil); i++ {
			op := g.next()
			var req request
			var lat *samples
			switch op.kind {
			case opRun:
				req, lat = runRequest(w, cells[op.cell]), &m.runWarm
			case opEstimate:
				req, lat = estimateRequest(w, op.app), &m.estimate
			case opFigure:
				req, lat = figureRequest(w, op.app), &m.figure
			}
			sp := tr.begin(warm.id, "http "+req.method+" "+req.path)
			t := time.Now()
			status, body, err := srv.do(ctx, req.method, req.path, req.body)
			d := time.Since(t)
			sp.end()
			m.warmOps.Add(1)
			if err != nil || status != http.StatusOK {
				rep.fail("warm %s %s: %d %v", req.method, req.path, status, err)
				continue
			}
			lat.add(d)
			switch op.kind {
			case opRun:
				rep.check(bytes.Equal(body, cold[op.cell]), "warm run %v differs from its cold body", cells[op.cell])
			case opEstimate:
				rep.check(verify(firstEst, refs.Estimates, op.app, body), "estimate %s differs from the pinned answer", op.app)
			case opFigure:
				rep.check(verify(firstFig, refs.Figures, op.app, body), "figure %s differs from the pinned render", op.app)
			}
		}
	})
	m.warmWall += time.Since(t0)
	warm.end()
	c.warm = statsDelta(cache.Stats(), before)
	rep.check(c.warm.Sims == 0, "serve_mix: the warm phase simulated %d cells", c.warm.Sims)
	return c, nil
}

// statsDelta is the cache activity between two snapshots.
func statsDelta(after, before runcache.Stats) runcache.Stats {
	return runcache.Stats{
		MemHits: after.MemHits - before.MemHits, DiskHits: after.DiskHits - before.DiskHits,
		RemoteHits: after.RemoteHits - before.RemoteHits, Dedups: after.Dedups - before.Dedups,
		Sims: after.Sims - before.Sims, Errors: after.Errors - before.Errors,
	}
}

func addStats(a, b runcache.Stats) runcache.Stats {
	return runcache.Stats{
		MemHits: a.MemHits + b.MemHits, DiskHits: a.DiskHits + b.DiskHits,
		RemoteHits: a.RemoteHits + b.RemoteHits, Dedups: a.Dedups + b.Dedups,
		Sims: a.Sims + b.Sims, Errors: a.Errors + b.Errors,
	}
}
