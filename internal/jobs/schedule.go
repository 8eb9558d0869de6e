package jobs

import (
	"sort"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/mem"
)

// costOrder returns the indices of cells ordered most-expensive-first by
// the analytical steady-state estimator (DESIGN.md §13). Dispatching the
// predicted-longest simulations first keeps the runner pool busy to the
// end of a grid instead of leaving one straggler running alone — the
// classic LPT heuristic. Each cell is costed by the shared estimator for
// its own workload, scale and tier configuration (estimate.For), so tiered
// and row-buffer cells are ordered by tier-aware predictions. The order
// itself is deterministic: a cell whose policy or estimator fails costs 0
// and runs last, and ties keep spec order (stable sort). Only the dispatch
// order changes; grid results are still assembled in spec order, so output
// bytes are identical whatever this returns.
func costOrder(cells []ascoma.Config) []int {
	cost := make([]int64, len(cells))
	for i, cfg := range cells {
		pol, err := mem.ParsePolicy(cfg.PagePolicy)
		if err != nil {
			continue
		}
		if est, err := estimate.For(cfg.Workload, cfg.Scale, cfg.Tiers, pol); err == nil {
			cost[i] = est.Predict(cfg.Arch, cfg.Pressure).ExecTime
		}
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order
}
