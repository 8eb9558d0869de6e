package estimate_test

// Exactness pins for Predict. The digest covers every registered workload
// at three scales, flat and tiered, every architecture and every pressure
// the API accepts, so any drift in any prediction field fails the test.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ascoma/internal/estimate"
	"ascoma/internal/mem"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// predictionsDigest is the SHA-256 of the JSON of every prediction
// TestPredictionsDigest enumerates, in its enumeration order.
const predictionsDigest = "16558696fa467bb580462aa50b166b9cb11790c9a99078e3da6fb74286d60744"

// allArchs is the paper's five architectures plus MIG-NUMA.
var allArchs = append(params.AllArchs(), params.MIGNUMA)

// digestTiers is the tiered configuration the digest covers beside flat
// memory: the layout the tiered_sweep benchmark and trace-check use.
func digestTiers(t testing.TB) []mem.TierSpec {
	t.Helper()
	tiers, err := mem.ParseTiers("30:40:60,70:120:300")
	if err != nil {
		t.Fatal(err)
	}
	return tiers
}

// newEstimator builds a fresh estimator for one workload, scale and tier
// configuration, without the For memo.
func newEstimator(t testing.TB, app string, scale int, tiers []mem.TierSpec, pol mem.Policy) *estimate.Estimator {
	t.Helper()
	prof, err := workload.ProfileFor(app, scale)
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimate.New(prof, params.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) > 0 || pol != mem.PolicyNone {
		est.SetTiers(tiers, pol)
	}
	return est
}

func TestPredictionsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every registered workload at three scales")
	}
	tiered := digestTiers(t)
	configs := []struct {
		tiers []mem.TierSpec
		pol   mem.Policy
	}{{nil, mem.PolicyNone}, {tiered, mem.PolicyHybrid}}
	h := sha256.New()
	enc := json.NewEncoder(h)
	n := 0
	for _, app := range workload.Names() {
		for _, scale := range []int{4, 8, 16} {
			for _, cfg := range configs {
				est := newEstimator(t, app, scale, cfg.tiers, cfg.pol)
				for _, arch := range allArchs {
					for p := 1; p <= 99; p++ {
						if err := enc.Encode(est.Predict(arch, p)); err != nil {
							t.Fatal(err)
						}
						n++
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if n != 42768 {
		t.Fatalf("enumerated %d predictions, want 42768", n)
	}
	if got != predictionsDigest {
		t.Fatalf("predictions digest = %s, want %s", got, predictionsDigest)
	}
}
