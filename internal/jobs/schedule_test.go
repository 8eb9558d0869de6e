package jobs

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/mem"
	"ascoma/internal/params"
	"ascoma/internal/runcache"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

func gridCells(t *testing.T, g GridSpec) []ascoma.Config {
	t.Helper()
	cells, err := g.cells(4096)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestCostOrder checks the estimate-seeded dispatch order: deterministic,
// sorted most-expensive-first by the analytical estimator, ties in spec
// order.
func TestCostOrder(t *testing.T) {
	g := GridSpec{Apps: []string{"uniform"}, Archs: []string{"S-COMA"}, Pressures: []int{10, 50, 90}, Scale: 32}
	cells := gridCells(t, g)

	order := costOrder(cells)
	if again := costOrder(cells); !reflect.DeepEqual(order, again) {
		t.Fatalf("costOrder is not deterministic: %v then %v", order, again)
	}

	prof, err := workload.ProfileFor("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimate.New(prof, params.Default())
	if err != nil {
		t.Fatal(err)
	}
	cost := make([]int64, len(cells))
	for i, cfg := range cells {
		cost[i] = est.Predict(cfg.Arch, cfg.Pressure).ExecTime
	}
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if cost[a] < cost[b] || (cost[a] == cost[b] && a > b) {
			t.Fatalf("order %v not cost-descending with spec-order ties: cost=%v", order, cost)
		}
	}
	// S-COMA degrades with pressure, so spec order (pressure-ascending) and
	// cost order must genuinely differ — otherwise this test proves nothing.
	if cost[0] >= cost[len(cells)-1] {
		t.Fatalf("estimator no longer ranks S-COMA 90%% above 10%% (cost=%v); pick a grid where order matters", cost)
	}
	if reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("cost order %v equals spec order; dispatch seeding is inert", order)
	}
}

// TestCostOrderTiered checks that a tiered grid is ordered by tier-aware
// predictions: a slow, mostly-NVM tier mix reorders fft and radix cells
// relative to the flat model, and costOrder must follow the tiered order.
func TestCostOrderTiered(t *testing.T) {
	tiers, err := mem.ParseTiers("10:40:60,90:400:1200")
	if err != nil {
		t.Fatal(err)
	}
	g := GridSpec{Apps: []string{"fft", "radix"}, Archs: []string{"CC-NUMA", "AS-COMA"},
		Pressures: []int{10, 90}, Scale: 32, Tiers: tiers, PagePolicy: "closed"}
	cells := gridCells(t, g)

	// byCost orders the cells as costOrder must, from estimators built
	// here rather than through the shared memo.
	byCost := func(tiered bool) []int {
		ests := map[string]*estimate.Estimator{}
		cost := make([]int64, len(cells))
		for i, cfg := range cells {
			est := ests[cfg.Workload]
			if est == nil {
				prof, err := workload.ProfileFor(cfg.Workload, cfg.Scale)
				if err != nil {
					t.Fatal(err)
				}
				if est, err = estimate.New(prof, params.Default()); err != nil {
					t.Fatal(err)
				}
				if tiered {
					est.SetTiers(tiers, mem.PolicyClosed)
				}
				ests[cfg.Workload] = est
			}
			cost[i] = est.Predict(cfg.Arch, cfg.Pressure).ExecTime
		}
		order := make([]int, len(cells))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
		return order
	}
	want, flat := byCost(true), byCost(false)
	if reflect.DeepEqual(want, flat) {
		t.Fatalf("tiered and flat orders agree (%v); pick a grid the tier mix reorders", want)
	}
	if got := costOrder(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("costOrder = %v, want the tier-aware order %v (flat order %v)", got, want, flat)
	}
}

// TestSeededDispatchKeepsSpecOutput runs a grid on a single-slot pool so
// dispatch order is observable as completion order, then checks the two
// halves of the scheduler's contract: cells start in predicted-cost order,
// and the assembled result is byte-identical to running the same cells in
// spec order.
func TestSeededDispatchKeepsSpecOutput(t *testing.T) {
	g := GridSpec{Apps: []string{"uniform"}, Archs: []string{"S-COMA"}, Pressures: []int{10, 50, 90}, Scale: 32}
	cells := gridCells(t, g)

	m := NewManager(&runcache.Runner{Jobs: 1}, Options{})
	defer m.Close()
	j, err := m.Submit(Spec{Grid: &g})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, terminal := j.Events(0); terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid job did not finish; status %+v", j.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}

	evs, _ := j.Events(0)
	var dispatched []int
	for _, ev := range evs {
		if ev.Type == "cell" {
			dispatched = append(dispatched, ev.Cell.Index)
		}
	}
	if want := costOrder(cells); !reflect.DeepEqual(dispatched, want) {
		t.Errorf("single-slot completion order %v, want cost order %v", dispatched, want)
	}

	// Reference: the same cells, simulated one by one in spec order.
	ref := make([]CellResult, len(cells))
	runner := &runcache.Runner{Jobs: 1}
	for i, cfg := range cells {
		res, err := runner.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = CellResult{
			Arch: cfg.Arch.String(), Workload: cfg.Workload,
			Pressure: cfg.Pressure, Result: stats.Report(res.Machine),
		}
	}
	got, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("cost-seeded dispatch changed assembled grid bytes:\ngot  %s\nwant %s", got, want)
	}
}
