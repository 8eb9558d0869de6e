// Command perfbench is the ascoma repository benchmark. It runs one named
// workload for a fixed time, checks every output against references pinned
// in refs/, and prints one JSON result object as the last line of standard
// output (human-readable metric lines with sample counts come before it).
//
// Build and run it from the root of a checkout through run.sh:
//
//	bash perfbench/run.sh --workload figsweep --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	figsweep      the paper's Figure 2/3 grid at scale 4 on flat memory
//	tiered_sweep  the same grid under two asymmetric tiers, hybrid page policy
//	serve_mix     an in-process ascoma-serve: a cold phase that simulates the
//	              scale-8 grid once over POST /api/v1/run, then a warm
//	              estimate/run/figure mix answered from the result cache
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// repeats the work with spans and a CPU profile and reports per-layer
// metrics (see BENCHMARK.json). --pin rewrites the workload's reference
// file instead of checking against it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	pin        bool
	setupChild bool
	refsDir    string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated request sequences")
	fs.IntVar(&o.seconds, "seconds", 20, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.pin, "pin", false, "rewrite the workload's reference file from this run")
	fs.BoolVar(&o.setupChild, "setup-child", false, "internal: time one set-up in a fresh process and exit")
	fs.StringVar(&o.refsDir, "refs", "perfbench/refs", "directory holding the pinned references")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// metric is one reported number; n is its sample count, printed on the
// human-readable line only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// tally is what one run produced. The workers of a run check their
// outputs concurrently, so the counters sit behind a mutex.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	failures          []string
	metrics           map[string]metric
	notes             []string // extra comment lines for the report
}

func newTally() *tally { return &tally{metrics: map[string]metric{}} }

func (r *tally) set(name string, v float64, unit string, n int) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
	r.mu.Unlock()
}

func (r *tally) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// check counts one verified operation, failing it with the formatted
// message when !ok.
func (r *tally) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
		return
	}
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed operation. Only the first messages are kept for
// the diagnostic output.
func (r *tally) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

func run(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w := workloads[o.workload]
	if o.setupChild {
		d, err := timeSetup(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return 0
	}
	refs, err := loadRefs(o.refsDir, w.name)
	if err != nil && !o.pin {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.pin {
		refs = newRefs()
	}

	ctx := context.Background()
	var rep *tally
	if o.trace {
		rep, err = runTraced(ctx, w, o, refs)
	} else {
		rep, err = runTimed(ctx, w, o, refs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.pin {
		if err := refs.save(o.refsDir, w.name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: pinned %d figures, %d cells, %d estimates for %s\n",
			len(refs.Figures), len(refs.Cells), len(refs.Estimates), w.name)
	}
	if rep.attempted < 1 {
		rep.fail("nothing was attempted")
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	if err := printReport(stdout, w.name, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runTimed is the untraced run: set-up timed in fresh processes, then the
// workload measured for o.seconds. Every timing is multiplied by the run's
// host factor (calib.go).
func runTimed(ctx context.Context, w *workload, o options, refs *refs) (*tally, error) {
	hc := &hostClock{}
	hc.sample()
	setups, err := childSetups(w, setupChildren)
	if err != nil {
		return nil, err
	}
	env, st, err := setup(w)
	if err != nil {
		return nil, err
	}
	defer env.close()
	setups = append(setups, st.total().Seconds())
	hc.sample()

	rep := newTally()
	m, err := measure(ctx, w, env, o, refs, rep, hc)
	if err != nil {
		return nil, err
	}
	f := hc.factor()
	m.endToEnd(rep, f)
	rep.set("setup_s", median(setups)*f, "s", len(setups))
	rep.set("ok_frac", float64(rep.attempted-rep.failed)/float64(max(rep.attempted, 1)), "ratio", int(rep.attempted))
	rep.note("peak RSS %.4g MB", peakRSSMB())
	rep.note("host calibration: chunk %.4g us, median of %d (reference %g us), factor %.4g; raw setup_s %.6g, sweep_s %.6g, serve_rps %.6g",
		median(hc.seen), len(hc.seen), calibRefUs, f, median(setups), median(m.sweeps), m.rps())
	return rep, nil
}

// setupChildren is how many fresh processes time the set-up besides the
// run's own; setup_s is the median of all of them. Fresh processes keep the
// workload and profile memos from being inherited warm.
const setupChildren = 10

func childSetups(w *workload, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", w.name)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup child output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func timeSetup(w *workload) (time.Duration, error) {
	env, st, err := setup(w)
	if err != nil {
		return 0, err
	}
	env.close()
	return st.total(), nil
}

func printReport(stdout io.Writer, name string, rep *tally) error {
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# %s: attempted %d, failed %d (failed_frac %g)\n",
		name, rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, k := range names {
		m := rep.metrics[k]
		fmt.Fprintf(stdout, "# %-28s %14.6g %-6s n=%d\n", k, m.Value, m.Unit, m.n)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM); where the
// kernel does not report it, the memory the Go runtime obtained stands in.
func peakRSSMB() float64 {
	b, _ := os.ReadFile("/proc/self/status") //ascoma:allow-errdrop a missing file falls back below
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
