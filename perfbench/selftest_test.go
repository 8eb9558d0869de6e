package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run times its set-up in child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, r
}

func checkMetrics(t *testing.T, r result, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("run reported %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
}

func TestShortRunEmitsEveryEndToEndMetric(t *testing.T) {
	spec := loadSpec(t)
	code, r := runBench(t, "--workload", "figsweep", "--seconds", "1", "--refs", "refs")
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Fatalf("exit %d, correct %v, failed %d", code, r.Correct, r.Failed)
	}
	checkMetrics(t, r, spec.EndToEnd)
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	code, r := runBench(t, "--workload", "serve_mix", "--seconds", "1", "--trace", "1", "--refs", "refs")
	if code != 0 || !r.Correct {
		t.Fatalf("exit %d, correct %v, failed %d", code, r.Correct, r.Failed)
	}
	checkMetrics(t, r, spec.PerLayer)
	if h := r.Metrics["runcache.hit_ratio_warm"].Value; h != 1 {
		t.Errorf("warm phase hit ratio %v, want 1", h)
	}
	if h := r.Metrics["runcache.hit_ratio_cold"].Value; h != 0 {
		t.Errorf("cold phase hit ratio %v, want 0", h)
	}
}

// TestCorruptReferenceFails proves the correctness gate bites: one wrong
// pinned cell digest must fail the run.
func TestCorruptReferenceFails(t *testing.T) {
	dir := t.TempDir()
	r, err := loadRefs("refs", "figsweep")
	if err != nil {
		t.Fatal(err)
	}
	r.Cells["AS-COMA/radix@70"] = "0000000000000000"
	if err := r.save(dir, "figsweep"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "figsweep.json"))
	if err != nil || !bytes.Contains(b, []byte(`"AS-COMA/radix@70": "0000000000000000"`)) {
		t.Fatalf("corrupted reference not written (%v)", err)
	}
	code, res := runBench(t, "--workload", "figsweep", "--seconds", "1", "--refs", dir)
	if code == 0 || res.Correct || res.Failed < 1 {
		t.Fatalf("corrupted digest passed: exit %d, correct %v, failed %d", code, res.Correct, res.Failed)
	}
}

// TestEndToEndScalesTimings checks that the run's host factor multiplies
// every timing, divides the request rate, and leaves the rest alone.
func TestEndToEndScalesTimings(t *testing.T) {
	var m measurements
	m.runCold.add(10 * time.Millisecond)
	m.runWarm.add(time.Millisecond)
	m.sweeps = []float64{3}
	m.liveHeaps = []float64{12}
	m.warmOps.Add(100)
	m.warmWall = time.Second
	rep := newTally()
	m.endToEnd(rep, 2)
	for name, want := range map[string]float64{
		"run_cold_p50_ms": 20, "run_warm_p50_ms": 2, "sweep_s": 6, "serve_rps": 50, "live_heap_mb": 12,
	} {
		if got := rep.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestCalibrationIsPositive checks that a calibration measures a positive
// chunk time and that the factor follows from it.
func TestCalibrationIsPositive(t *testing.T) {
	var h hostClock
	h.sample()
	if c := h.seen[0]; c <= 0 || h.factor() != math.Pow(calibRefUs/c, calibExp) {
		t.Fatalf("chunk time %v us, factor %v", c, h.factor())
	}
}
