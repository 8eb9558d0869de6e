package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one run
// form a tree through Parent (0 = the root's parent).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed runs pay only a nil check per call. Every span
// without a parent hangs under one root span named after the workload.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	root  open
}

func newTracer(workload string) *tracer {
	t := &tracer{t0: time.Now()}
	t.root = t.begin(-1, "workload "+workload)
	return t
}

// open is a started span; end records it.
type open struct {
	t  *tracer
	id int64
}

func (t *tracer) begin(parent int64, name string) open {
	if t == nil {
		return open{}
	}
	switch parent {
	case 0:
		parent = t.root.id
	case -1:
		parent = 0
	}
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	t.mu.Unlock()
	return open{t, id}
}

func (o open) end() {
	if o.t == nil {
		return
	}
	end := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans[o.id-1].End = end
	o.t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (children may overlap: the benchmark's workers run
// concurrently under one phase span).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// harnessSelfPct is the share of the root span's time that no layer call
// covers: the benchmark's own work plus any moment no worker was busy.
func harnessSelfPct(spans []span) float64 {
	self := selfTimes(spans)
	isLayer := map[int64]bool{}
	for _, s := range spans {
		isLayer[s.ID] = strings.Contains(s.Name, ".") || strings.HasPrefix(s.Name, "http ")
	}
	var root, harness int64
	for _, s := range spans {
		if s.Parent == 0 {
			root += s.End - s.Start
		}
		if !isLayer[s.ID] {
			harness += self[s.ID]
		}
	}
	if root == 0 {
		return 0
	}
	return 100 * float64(harness) / float64(root)
}

// finish ends the root span and writes every span as JSON.
func (t *tracer) finish(path string) error {
	t.root.end()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuLayers are the layers whose share of the CPU profile is reported.
// Ascoma layers are named by their directory under internal/ ("serve"
// also holds internal/jobs, whose spec validation the endpoints run);
// "other" is the remaining ascoma packages, "harness" the benchmark's own
// code (its HTTP clients included), "stdlib" and "runtime" the samples
// with neither on the stack.
var cpuLayers = []string{
	"machine", "sim", "cache", "directory", "vm", "mem", "network", "workload",
	"core", "estimate", "runcache", "report", "serve", "other", "harness", "stdlib", "runtime",
}

// ascomaLayer maps a profiled function to its ascoma layer, or "" when
// the function is not ascoma code.
func ascomaLayer(fn string) string {
	const internal = "ascoma/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		if rest == "jobs" {
			return "serve"
		}
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "ascoma."):
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "harness"
	}
	return ""
}

// layerOfStack attributes one sample: to the innermost ascoma or harness
// frame, so standard-library work (JSON encoding, hashing, allocation) is
// charged to the layer that asked for it.
func layerOfStack(frames []string) string {
	runtimeOnly := true
	for _, fn := range frames {
		if l := ascomaLayer(fn); l != "" {
			return l
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") && !strings.HasPrefix(fn, "internal/runtime/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime"
	}
	return "stdlib"
}

// foldProfile folds a CPU profile per layer into percentages of all
// samples, reading its stacks through go tool pprof -traces.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	byLayer := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[layerOfStack(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSuffix(strings.TrimSpace(sc.Text()), " (inline)")
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		// A sample starts with its value and leaf frame; its callers
		// follow one per line. Frame names may contain spaces.
		first, rest, _ := strings.Cut(line, " ")
		if d, err := time.ParseDuration(first); err == nil && len(frames) == 0 {
			value = d
			frames = append(frames, strings.TrimSpace(rest))
		} else if len(frames) > 0 && line != "" {
			frames = append(frames, line)
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof: empty profile %s", path)
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}
