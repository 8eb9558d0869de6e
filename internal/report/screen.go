// Estimator screening: before a figure grid fans out, the analytical
// model in internal/estimate partitions each application's pressure axis
// into cells it can certify pressure-insensitive — the pool holds the
// entire remote footprint with the pageout daemon never waking, so the
// simulation result is bit-identical at every certified pressure. Only
// one representative per certified class simulates; the rest reuse its
// result, which keeps the rendered tables byte-identical to an
// unscreened sweep while simulating strictly fewer cells. Cells the
// model cannot prove equal (the pressured, interesting ones) always
// simulate. A runtime cross-check on the representative (the daemon must
// in fact never have run) demotes a stale certificate to a full
// simulation instead of a wrong table.
package report

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ascoma"
	"ascoma/internal/estimate"
	"ascoma/internal/mem"
	"ascoma/internal/obs"
	"ascoma/internal/stats"
)

// ScreenStats counts screening outcomes across figure renders. Share one
// instance across Options to aggregate a whole sweep; Publish exposes the
// counters on a metrics registry (ascoma-serve's /metrics, cmd/sweep's
// exit report).
type ScreenStats struct {
	simulated atomic.Int64
	skipped   atomic.Int64
	fallbacks atomic.Int64
}

// Simulated returns the number of grid cells that ran a real simulation.
func (s *ScreenStats) Simulated() int64 { return s.simulated.Load() }

// Skipped returns the number of grid cells filled from a certified
// representative instead of simulating.
func (s *ScreenStats) Skipped() int64 { return s.skipped.Load() }

// Fallbacks returns how many certificates failed their runtime
// cross-check and were demoted to real simulations.
func (s *ScreenStats) Fallbacks() int64 { return s.fallbacks.Load() }

// Publish registers the screening counters on reg.
func (s *ScreenStats) Publish(reg *obs.Registry) {
	reg.NewCounterFunc("ascoma_estimate_skipped_total",
		"Grid cells not simulated: the estimator certified them equal to a simulated representative.",
		s.Skipped)
	reg.NewCounterFunc("ascoma_estimate_simulated_total",
		"Grid cells simulated under screening (the cells the model could not prove redundant).",
		s.Simulated)
	reg.NewCounterFunc("ascoma_estimate_fallbacks_total",
		"Certificates that failed their runtime cross-check and fell back to real simulation.",
		s.Fallbacks)
}

// screenPlan is one application's screening decision: the lowest
// certified pressure simulates as the representative; the remaining
// certified pressures are filled from it.
type screenPlan struct {
	rep    int
	filled []int
}

// planScreen builds the screening plan for one application, or nil when
// screening cannot help (estimator construction failed, or fewer than two
// pressures are certified so there is nothing to fill).
func planScreen(app string, o Options) *screenPlan {
	est, err := estimate.For(app, o.Scale, nil, mem.PolicyNone) // screening runs only on flat memory
	if err != nil {
		return nil
	}
	var cert []int
	for _, p := range o.Pressures {
		if est.Insensitive(p) {
			cert = append(cert, p)
		}
	}
	if len(cert) < 2 {
		return nil
	}
	return &screenPlan{rep: cert[0], filled: cert[1:]}
}

// applyScreen fills the certified cells of one arch column from its
// simulated representative, after cross-checking that the certificate
// held at runtime (the pageout daemon never ran and no relocation was
// denied on the representative). Returns the keys that must simulate
// after all because the cross-check failed.
func (p *screenPlan) applyScreen(results map[runKey]*ascoma.Result, arch ascoma.Arch) (filled, fallback []runKey) {
	rep := results[runKey{arch, p.rep}]
	certHeld := rep != nil &&
		rep.Counter(func(n *stats.Node) int64 { return n.DaemonRuns }) == 0 &&
		rep.Counter(func(n *stats.Node) int64 { return n.RelocDenied }) == 0
	for _, pr := range p.filled {
		k := runKey{arch, pr}
		if !certHeld {
			fallback = append(fallback, k)
			continue
		}
		results[k] = rep
		filled = append(filled, k)
	}
	return filled, fallback
}

// runGridScreened is runGrid's screening variant: simulate the
// representative cells, fill the certified ones, and simulate any cell
// whose certificate fails its runtime cross-check.
func runGridScreened(ctx context.Context, app string, o Options, plan *screenPlan) (map[runKey]*ascoma.Result, error) {
	simP := make([]int, 0, len(o.Pressures))
	for _, pr := range o.Pressures {
		skip := false
		for _, f := range plan.filled {
			if pr == f {
				skip = true
				break
			}
		}
		if !skip {
			simP = append(simP, pr)
		}
	}
	screened := o
	screened.Pressures = simP
	results, err := runGrid(ctx, app, screened)
	if err != nil {
		return nil, err
	}

	var filled, fallback []runKey
	for _, a := range gridArchs {
		f, fb := plan.applyScreen(results, a)
		filled = append(filled, f...)
		fallback = append(fallback, fb...)
	}
	if len(fallback) > 0 {
		// The certificate lied (model rot); simulate the remaining cells
		// so the rendered tables stay correct no matter what.
		var mu sync.Mutex
		g, ctx := newErrGroup(ctx)
		for _, k := range fallback {
			k := k
			g.go_(func() error {
				res, err := o.Runner.Run(ctx, ascoma.Config{
					Arch: k.arch, Workload: app, Pressure: k.pressure, Scale: o.Scale,
				})
				if err != nil {
					return fmt.Errorf("%s %v(%d%%): %w", app, k.arch, k.pressure, err)
				}
				mu.Lock()
				results[k] = res
				mu.Unlock()
				return nil
			})
		}
		if err := g.wait(); err != nil {
			return nil, err
		}
	}

	if o.ScreenStats != nil {
		o.ScreenStats.simulated.Add(int64(len(results)) - int64(len(filled)))
		o.ScreenStats.skipped.Add(int64(len(filled)))
		o.ScreenStats.fallbacks.Add(int64(len(fallback)))
	}
	if o.ScreenLog != nil {
		o.ScreenLog(app, len(results)-len(filled), len(filled))
	}
	return results, nil
}
