package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// refs are the outputs pinned for one workload: FNV-64a digests of every
// rendered figure, every cell's statistics (json.Marshal of the result's
// stats.Machine, as golden_test.go hashes it; for serve_mix the run
// response body) and every estimate answer. A run checks what it computes
// against them; a --pin run records them instead.
type refs struct {
	Figures   map[string]string `json:"figures"`
	Cells     map[string]string `json:"cells"`
	Estimates map[string]string `json:"estimates"`

	mu      sync.Mutex
	pinning bool
}

func newRefs() *refs {
	return &refs{Figures: map[string]string{}, Cells: map[string]string{}, Estimates: map[string]string{}, pinning: true}
}

func refsPath(dir, name string) string { return filepath.Join(dir, name+".json") }

func loadRefs(dir, name string) (*refs, error) {
	b, err := os.ReadFile(refsPath(dir, name))
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	r := &refs{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("references %s: %w", refsPath(dir, name), err)
	}
	if len(r.Figures) == 0 || len(r.Cells) == 0 || len(r.Estimates) == 0 {
		return nil, fmt.Errorf("references %s: empty", refsPath(dir, name))
	}
	return r, nil
}

func (r *refs) save(dir, name string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(refsPath(dir, name), append(b, '\n'), 0o644)
}

// match reports whether digest is the one pinned under key in table (one
// of r's maps); while pinning it records the first digest seen and checks
// later ones against it.
func (r *refs) match(table map[string]string, key, digest string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	want, ok := table[key]
	if !ok && r.pinning {
		table[key] = digest
		return true
	}
	return ok && want == digest
}

func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
