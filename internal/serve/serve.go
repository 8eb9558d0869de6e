// Package serve implements the ascoma-serve HTTP service: the synchronous
// run/figure endpoints, the async job farm (submit -> poll -> stream), the
// /cache/v1 peer protocol that lets workers share one content-addressed
// result store, and the metrics/expvar/pprof surface. cmd/ascoma-serve is
// a thin flag wrapper; the e2e harness builds Servers in-process to drive
// multi-worker topologies.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"ascoma/internal/estimate"
	"ascoma/internal/jobs"
	"ascoma/internal/obs"
	"ascoma/internal/report"
	"ascoma/internal/runcache"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for a request whose client went away: the work was cancelled, nothing
// failed. Kept distinct from 504 (the server's own deadline) and 500 so
// disconnect storms never page anyone as server errors.
const StatusClientClosedRequest = 499

// Config assembles one Server.
type Config struct {
	// Cache is the content-addressed result cache (required). Build it
	// with runcache.NewWithBackends to share a store across workers.
	Cache *runcache.Cache
	// Jobs bounds concurrent simulations (< 1 = NumCPU).
	Jobs int
	// Timeout bounds each synchronous request's simulation work.
	Timeout time.Duration
	// Pprof exposes net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// JobOpts tunes the async job manager (zero value = defaults).
	JobOpts jobs.Options
}

// Server holds the orchestration layer and the request-level metrics. The
// metrics live on a per-server obs.Registry (served at /metrics in
// Prometheus text form); /debug/vars is a per-server expvar-shaped shim
// reading the same counters, so several Servers per process — the e2e
// harness, the farm tests — never share or clobber state.
type Server struct {
	runner  *runcache.Runner
	cache   *runcache.Cache
	mgr     *jobs.Manager
	timeout time.Duration
	pprofOn bool

	reg        *obs.Registry
	archRuns   *obs.CounterVec // completed requests by architecture (+ "figure")
	archNanos  *obs.CounterVec // cumulative request latency by architecture
	runSeconds *obs.Histogram  // request latency distribution
	errCodes   *obs.CounterVec // failed requests by status code (499/500/504)
	jobsByKind *obs.CounterVec // admitted jobs by spec kind
	estimates  *obs.Counter    // analytical estimate requests served
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	runner := &runcache.Runner{Cache: cfg.Cache, Jobs: cfg.Jobs}
	reg := obs.NewRegistry()
	s := &Server{
		runner:  runner,
		cache:   cfg.Cache,
		mgr:     jobs.NewManager(runner, cfg.JobOpts),
		timeout: cfg.Timeout,
		pprofOn: cfg.Pprof,
		reg:     reg,
		archRuns: reg.NewCounterVec("ascoma_requests_total",
			"Completed simulation requests by architecture (figure renders count as \"figure\").", "arch"),
		archNanos: reg.NewCounterVec("ascoma_request_nanos_total",
			"Cumulative request latency in nanoseconds by architecture.", "arch"),
		runSeconds: reg.NewHistogram("ascoma_request_seconds",
			"Request latency in seconds (cache hits and fresh simulations alike).", nil),
		errCodes: reg.NewCounterVec("ascoma_request_errors_total",
			"Failed simulation requests by status code: 499 = client disconnected (not a server fault), 504 = server deadline, 500 = simulation error.", "code"),
		jobsByKind: reg.NewCounterVec("ascoma_jobs_submitted_total",
			"Admitted async jobs by spec kind.", "kind"),
		estimates: reg.NewCounter("ascoma_estimates_total",
			"Analytical estimate requests served (POST /api/v1/estimate); no simulation runs for these."),
	}
	reg.NewGaugeFunc("ascoma_inflight_runs",
		"Simulations currently executing (cache hits never count).",
		func() float64 { return float64(runner.InFlight()) })
	cfg.Cache.Publish(reg)
	s.mgr.Publish(reg)
	return s
}

// Cache returns the server's result cache (the smoke test and the e2e
// harness assert on its counters).
func (s *Server) Cache() *runcache.Cache { return s.cache }

// Jobs returns the async job manager.
func (s *Server) Jobs() *jobs.Manager { return s.mgr }

// Close cancels every live job. Call it after draining the HTTP server.
func (s *Server) Close() { s.mgr.Close() }

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n") //ascoma:allow-errdrop client write failure is the client's problem
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("POST /api/v1/run", s.handleRun)
	mux.HandleFunc("POST /api/v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /api/v1/figure/{app}", s.handleFigure)
	mux.HandleFunc("POST /api/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)
	mux.Handle(runcache.PeerPrefix, http.StripPrefix(
		strings.TrimSuffix(runcache.PeerPrefix, "/"), runcache.PeerHandler(s.cache)))
	if s.pprofOn {
		// The mux is not DefaultServeMux, so the handlers the pprof
		// import registers there are unreachable; wire them explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleVars is the expvar-shaped shim: the same keys the service exposed
// before the obs registry existed, rendered per-server — no process-global
// expvar registration, so every Server in a process reads its *own* cache
// and counters. The standard expvar globals (cmdline, memstats) are
// passed through for legacy consumers.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var b strings.Builder
	b.WriteString("{")
	first := true
	writeKV := func(key, val string) {
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, "\n%q: %s", key, val)
	}
	expvar.Do(func(kv expvar.KeyValue) {
		writeKV(kv.Key, kv.Value.String())
	})
	for _, v := range []struct {
		key string
		val any
	}{
		{"ascoma_cache", s.cache.Stats()},
		{"ascoma_inflight_runs", s.runner.InFlight()},
		{"ascoma_runs", s.archRuns.Snapshot()},
		{"ascoma_run_nanos", s.archNanos.Snapshot()},
	} {
		blob, err := json.Marshal(v.val)
		if err != nil {
			blob = []byte("null")
		}
		writeKV(v.key, string(blob))
	}
	b.WriteString("\n}\n")
	io.WriteString(w, b.String()) //ascoma:allow-errdrop client write failure is the client's problem
}

// writeRunError maps a simulation error onto the status taxonomy and the
// error counter: the server's own deadline is 504, a client that went
// away is 499 (observable but never a server fault), anything else is a
// real 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = StatusClientClosedRequest
	}
	s.errCodes.With(strconv.Itoa(status)).Inc()
	http.Error(w, err.Error(), status)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec jobs.RunSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if spec.EpochInterval != 0 {
		http.Error(w, "epochInterval requires the async jobs endpoint (POST /api/v1/jobs)", http.StatusBadRequest)
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	start := time.Now()
	res, err := s.runner.Run(ctx, cfg)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	elapsed := time.Since(start)
	s.archRuns.With(cfg.Arch.String()).Inc()
	s.archNanos.With(cfg.Arch.String()).Add(elapsed.Nanoseconds())
	s.runSeconds.Observe(elapsed.Seconds())

	w.Header().Set("Content-Type", "application/json")
	// Sized for the report (~600 B plus ~520 B a node) and its samples, so
	// the body is appended into one allocation.
	buf := make([]byte, 0, 1024+576*len(res.Nodes)+160*len(res.Samples))
	body := jobs.RunResult{Machine: res.Machine, Samples: res.Samples}.AppendJSON(buf)
	if _, err := w.Write(append(body, '\n')); err != nil {
		log.Printf("run response: %v", err)
	}
}

// handleEstimate serves the analytical fast path: one steady-state
// prediction per (arch, pressure) cell, computed in microseconds from the
// workload's memoized structural profile. Validation errors are 400s like
// the simulation endpoints; nothing here touches the runner or the cache.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var spec jobs.EstimateSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	preds, err := spec.Predictions()
	if err != nil {
		if jobs.IsValidation(err) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.errCodes.With(strconv.Itoa(http.StatusInternalServerError)).Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.estimates.Inc()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(struct {
		Workload    string                `json:"workload"`
		Predictions []estimate.Prediction `json:"predictions"`
	}{spec.Workload, preds}); err != nil {
		log.Printf("estimate response: %v", err)
	}
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	fig := jobs.FigureSpec{App: app}
	q := r.URL.Query()
	fig.Format = q.Get("format")
	if v := q.Get("scale"); v != "" {
		scale, err := strconv.Atoi(v)
		if err != nil || scale < 1 {
			http.Error(w, "scale must be a positive integer", http.StatusBadRequest)
			return
		}
		fig.Scale = scale
	}
	if v := q.Get("pressures"); v != "" {
		plist, err := report.ParsePressures(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fig.Pressures = plist
	}
	opts, err := fig.ReportOptions(s.runner)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	// Render into a buffer so a mid-grid failure returns a clean error
	// instead of a truncated document.
	var buf strings.Builder
	start := time.Now()
	if err := report.Figure(ctx, &buf, app, opts); err != nil {
		s.writeRunError(w, err)
		return
	}
	elapsed := time.Since(start)
	s.archRuns.With("figure").Inc()
	s.archNanos.With("figure").Add(elapsed.Nanoseconds())
	s.runSeconds.Observe(elapsed.Seconds())
	if opts.Format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	io.WriteString(w, buf.String()) //ascoma:allow-errdrop client write failure is the client's problem
}

// handleJobSubmit admits one async job: 202 + status on success, 400 on a
// bad spec, 503 + Retry-After when the admission bound is hit.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.mgr.Submit(spec)
	switch {
	case err == nil:
	case jobs.IsValidation(err):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, jobs.ErrBusy):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.jobsByKind.With(spec.Kind()).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID())
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.Status()) //ascoma:allow-errdrop client write failure is the client's problem
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *jobs.Job {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Status()) //ascoma:allow-errdrop client write failure is the client's problem
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.Status()) //ascoma:allow-errdrop client write failure is the client's problem
}

// handleJobEvents streams the job's event log as NDJSON (one JSON event
// per line, flushed as produced): everything from ?from=<seq> (default 0)
// that exists, then live events until the job is terminal or the client
// goes away. Reconnect with from=<last seq + 1> to resume.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "from must be a non-negative integer", http.StatusBadRequest)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, err := j.Wait(r.Context(), from)
		if err != nil {
			return // io.EOF (terminal, drained) or the client went away
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(evs)
		if fl != nil {
			fl.Flush()
		}
	}
}
