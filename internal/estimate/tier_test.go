package estimate_test

// Tier-aware estimator pins: the default (flat) estimator must predict
// bit-identically to the pre-tier model — memAdj is zero unless SetTiers
// installs a configuration — and a tier mix that slows the capacity-
// weighted mean latency must raise predicted execution time, while an
// open-page policy must lower the effective latency it charges.

import (
	"testing"

	"ascoma/internal/estimate"
	"ascoma/internal/mem"
	"ascoma/internal/params"
)

func tierEstimator(t *testing.T) *estimate.Estimator {
	return newEstimator(t, "radix", 8, nil, mem.PolicyNone)
}

func TestSetTiersNilIsIdentity(t *testing.T) {
	a := tierEstimator(t)
	b := tierEstimator(t)
	b.SetTiers(nil, mem.PolicyNone)
	for _, arch := range params.AllArchs() {
		for _, pr := range []int{10, 50, 90} {
			pa, pb := a.Predict(arch, pr), b.Predict(arch, pr)
			if pa != pb {
				t.Fatalf("%v@%d%%: SetTiers(nil, none) changed the prediction: %+v vs %+v", arch, pr, pa, pb)
			}
		}
	}
}

func TestSlowTiersRaisePrediction(t *testing.T) {
	flat := tierEstimator(t)
	tiered := tierEstimator(t)
	p := params.Default()
	tiered.SetTiers([]mem.TierSpec{
		{CapacityPct: 25, ReadCycles: p.LocalMemCycles, WriteCycles: p.LocalMemCycles},
		{CapacityPct: 75, ReadCycles: 4 * p.LocalMemCycles, WriteCycles: 8 * p.LocalMemCycles},
	}, mem.PolicyNone)
	for _, arch := range params.AllArchs() {
		f, s := flat.Predict(arch, 70), tiered.Predict(arch, 70)
		if s.ExecTime <= f.ExecTime {
			t.Errorf("%v: 75%%-slow tiers predicted %d cycles, not above flat %d", arch, s.ExecTime, f.ExecTime)
		}
	}
}

func TestTierMemAdjust(t *testing.T) {
	p := params.Default()
	if adj := estimate.TierMemAdjust(&p, nil, mem.PolicyNone); adj != 0 {
		t.Fatalf("flat adjustment = %d, want 0", adj)
	}
	// A single tier at exactly the flat latency with no policy is a no-op.
	one := []mem.TierSpec{{CapacityPct: 100, ReadCycles: p.LocalMemCycles, WriteCycles: p.LocalMemCycles}}
	if adj := estimate.TierMemAdjust(&p, one, mem.PolicyNone); adj != 0 {
		t.Fatalf("identity tier adjustment = %d, want 0", adj)
	}
	// Row-buffer policies discount the effective latency: open below
	// hybrid below none.
	open := estimate.TierMemAdjust(&p, one, mem.PolicyOpen)
	hyb := estimate.TierMemAdjust(&p, one, mem.PolicyHybrid)
	if !(open < hyb && hyb < 0) {
		t.Fatalf("policy discounts out of order: open=%d hybrid=%d (want open < hybrid < 0)", open, hyb)
	}
	// Capacity weighting: 50/50 split between Lm and 3*Lm averages 2*Lm
	// under symmetric read/write, i.e. an adjustment of +Lm.
	lm := p.LocalMemCycles
	split := []mem.TierSpec{
		{CapacityPct: 50, ReadCycles: lm, WriteCycles: lm},
		{CapacityPct: 50, ReadCycles: 3 * lm, WriteCycles: 3 * lm},
	}
	if adj := estimate.TierMemAdjust(&p, split, mem.PolicyNone); adj != int64(lm) {
		t.Fatalf("50/50 Lm/3Lm adjustment = %d, want %d", adj, lm)
	}
}
