package estimate_test

import (
	"sync"
	"testing"

	"ascoma/internal/estimate"
	"ascoma/internal/mem"
	"ascoma/internal/params"
)

// scomaBinds reports whether some node's remote pages overflow the page
// pool at this pressure, i.e. whether Predict must walk S-COMA's page
// classes instead of reading the static table.
func scomaBinds(est *estimate.Estimator, pressure int) bool {
	prof := est.Profile()
	resident := int64(prof.HomePagesPerNode + prof.PrivatePagesPerNode)
	return prof.MaxRemotePages > est.TotalPages(pressure)-resident
}

func TestPredictAllocFree(t *testing.T) {
	tiered := digestTiers(t)
	for _, app := range []string{"fft", "radix"} {
		for _, cfg := range []struct {
			name  string
			tiers []mem.TierSpec
			pol   mem.Policy
		}{{"flat", nil, mem.PolicyNone}, {"tiered", tiered, mem.PolicyHybrid}} {
			est := newEstimator(t, app, 4, cfg.tiers, cfg.pol)
			// 10% leaves the pool unbound; 99% overflows it.
			if scomaBinds(est, 10) || !scomaBinds(est, 99) {
				t.Fatalf("%s/%s: want the pool free at 10%% and binding at 99%%", app, cfg.name)
			}
			for _, arch := range allArchs {
				for _, pr := range []int{10, 99} {
					var sink int64
					allocs := testing.AllocsPerRun(100, func() {
						sink += est.Predict(arch, pr).ExecTime
					})
					if allocs != 0 {
						t.Errorf("%s/%s %v@%d%%: Predict allocated %.1f times per call", app, cfg.name, arch, pr, allocs)
					}
				}
			}
		}
	}
}

func TestForConcurrent(t *testing.T) {
	type key struct {
		app   string
		scale int
		tiers []mem.TierSpec
		pol   mem.Policy
	}
	tiered := digestTiers(t)
	var keys []key
	for _, app := range []string{"fft", "radix"} {
		for _, scale := range []int{8, 16} {
			keys = append(keys, key{app, scale, nil, mem.PolicyNone}, key{app, scale, tiered, mem.PolicyHybrid})
		}
	}
	const workers = 8
	got := make([][]*estimate.Estimator, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*estimate.Estimator, len(keys))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range keys {
				i := (j + w) % len(keys) // each worker starts at a different key
				k := keys[i]
				est, err := estimate.For(k.app, k.scale, k.tiers, k.pol)
				if err != nil {
					t.Errorf("For(%s, %d): %v", k.app, k.scale, err)
					return
				}
				got[w][i] = est
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, k := range keys {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("key %d (%s/%d): workers 0 and %d got different estimators", i, k.app, k.scale, w)
			}
		}
		fresh := newEstimator(t, k.app, k.scale, k.tiers, k.pol)
		for _, arch := range allArchs {
			for pr := 1; pr <= 99; pr += 7 {
				if a, b := got[0][i].Predict(arch, pr), fresh.Predict(arch, pr); a != b {
					t.Fatalf("key %d (%s/%d) %v@%d%%: For predicted %+v, New %+v", i, k.app, k.scale, arch, pr, a, b)
				}
			}
		}
	}
}

func TestForBounded(t *testing.T) {
	p := params.Default()
	spec := func(i int) []mem.TierSpec {
		return []mem.TierSpec{
			{CapacityPct: 40, ReadCycles: p.LocalMemCycles, WriteCycles: p.LocalMemCycles + int64(i)},
			{CapacityPct: 60, ReadCycles: 3 * p.LocalMemCycles, WriteCycles: 6 * p.LocalMemCycles},
		}
	}
	const keys = 200
	var first, last *estimate.Estimator
	for i := 0; i < keys; i++ {
		est, err := estimate.For("fft", 16, spec(i), mem.PolicyOpen)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = est
		}
		last = est
	}
	if n := estimate.ForLen(); n > estimate.ForCap {
		t.Fatalf("For holds %d estimators after %d keys, want at most %d", n, keys, estimate.ForCap)
	}
	// Eviction is in insertion order: the newest key survives, the oldest
	// was rebuilt.
	if est, _ := estimate.For("fft", 16, spec(keys-1), mem.PolicyOpen); est != last {
		t.Fatal("the newest key was evicted")
	}
	if est, _ := estimate.For("fft", 16, spec(0), mem.PolicyOpen); est == first {
		t.Fatal("the oldest key survived 199 newer ones")
	}
}
