package ascoma_test

// Byte identity of every served result body: the report, run and grid
// encoders append JSON by hand, and each must write exactly what
// encoding/json writes over the stats.Report oracle, across the golden
// matrix with and without adaptation samples.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/jobs"
	"ascoma/internal/runcache"
	"ascoma/internal/serve"
	"ascoma/internal/stats"
)

// The oracle schemas: what the result bodies encoded as when they were
// built from stats.Report with encoding/json.
type (
	runOracle struct {
		Result  stats.JSONReport `json:"result"`
		Samples []ascoma.Sample  `json:"samples,omitempty"`
	}
	cellOracle struct {
		Arch     string           `json:"arch"`
		Workload string           `json:"workload"`
		Pressure int              `json:"pressure"`
		Result   stats.JSONReport `json:"result"`
	}
)

// encode is json.NewEncoder's output, as every handler writes it.
func encode(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestReportBytesMatchEncodingJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the golden matrix twice")
	}
	cache := runcache.NewWithBackends(256)
	srv := serve.New(serve.Config{Cache: cache, Jobs: 2, Timeout: time.Minute})
	defer srv.Close()
	h := srv.Handler()
	call := func(method, path string, body []byte, want int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	// jobBody submits spec and returns the finished job's status body.
	jobBody := func(spec jobs.Spec) []byte {
		t.Helper()
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		if err := json.Unmarshal(call(http.MethodPost, "/api/v1/jobs", blob, http.StatusAccepted), &st); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			body := call(http.MethodGet, "/api/v1/jobs/"+st.ID, nil, http.StatusOK)
			if !bytes.Contains(body, []byte(`"state":"queued"`)) && !bytes.Contains(body, []byte(`"state":"running"`)) {
				return body
			}
		}
		t.Fatalf("job %s did not finish", st.ID)
		return nil
	}
	// withResult re-encodes a status body with its result replaced by the
	// oracle: every other byte of the status is encoding/json's already.
	withResult := func(body []byte, oracle any) string {
		t.Helper()
		var st jobs.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		st.Result = oracle
		return encode(t, st)
	}

	for _, cfg := range ascoma.GoldenConfigs() {
		for _, interval := range []int64{0, 5000} {
			spec := jobs.RunSpec{Arch: cfg.Arch.String(), Workload: cfg.Workload, Pressure: cfg.Pressure,
				Scale: cfg.Scale, SampleInterval: interval}
			name := fmt.Sprintf("%v/%s@%d", cfg.Arch, cfg.Workload, cfg.Pressure)
			blob, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			cold := call(http.MethodPost, "/api/v1/run", blob, http.StatusOK)
			run, err := spec.Config()
			if err != nil {
				t.Fatal(err)
			}
			key, err := runcache.KeyOf(run)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cache.Fetch(context.Background(), key)
			if err != nil {
				t.Fatalf("%s: not cached: %v", name, err)
			}
			if interval > 0 && len(res.Samples) == 0 {
				t.Fatalf("%s: no samples at interval %d", name, interval)
			}
			oracle := runOracle{Result: stats.Report(res.Machine), Samples: res.Samples}
			if want := encode(t, oracle); string(cold) != want {
				t.Errorf("%s interval %d: run body differs from encoding/json:\ngot  %s\nwant %s", name, interval, cold, want)
			}
			if warm := call(http.MethodPost, "/api/v1/run", blob, http.StatusOK); !bytes.Equal(warm, cold) {
				t.Errorf("%s interval %d: warm run body differs from the cold one", name, interval)
			}
			if st := jobBody(jobs.Spec{Run: &spec}); string(st) != withResult(st, oracle) {
				t.Errorf("%s interval %d: run job status differs from encoding/json:\ngot  %s", name, interval, st)
			}

			// ascoma-sim -json indents the appended report.
			var indented bytes.Buffer
			if err := json.Indent(&indented, stats.AppendReport(nil, res.Machine), "", "  "); err != nil {
				t.Fatal(err)
			}
			indented.WriteByte('\n')
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(stats.Report(res.Machine)); err != nil {
				t.Fatal(err)
			}
			if indented.String() != want.String() {
				t.Errorf("%s interval %d: -json output differs from the indented encoding/json report", name, interval)
			}
		}
	}

	// One grid job over the whole matrix, answered from the cache.
	grid := &jobs.GridSpec{Apps: []string{"barnes", "em3d", "fft", "lu", "ocean", "radix"},
		Archs: []string{"CC-NUMA", "S-COMA", "R-NUMA", "VC-NUMA", "AS-COMA", "MIG-NUMA"}, Pressures: []int{10, 70}, Scale: 8}
	sims := cache.Stats().Sims
	st := jobBody(jobs.Spec{Grid: grid})
	if got := cache.Stats().Sims; got != sims {
		t.Fatalf("grid job simulated %d cells; the matrix was already cached", got-sims)
	}
	var cells []cellOracle
	for _, cfg := range ascoma.GoldenConfigs() {
		key, err := runcache.KeyOf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cache.Fetch(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cellOracle{Arch: cfg.Arch.String(), Workload: cfg.Workload, Pressure: cfg.Pressure, Result: stats.Report(res.Machine)})
	}
	if want := withResult(st, cells); string(st) != want {
		t.Errorf("grid job status differs from encoding/json:\ngot  %.2000s\nwant %.2000s", st, want)
	}
}
