package machine

import (
	"testing"

	"ascoma/internal/addr"
	"ascoma/internal/mem"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// TestCoherenceCheckerPassesAllArchitectures runs every architecture (and
// both AS-COMA ablations, via workloads that exercise page churn) under the
// version-shadowing checker: any lost invalidation fails the run.
func TestCoherenceCheckerPassesAllArchitectures(t *testing.T) {
	apps := []string{"uniform", "hotcold", "mismatch"}
	archs := append(params.AllArchs(), params.MIGNUMA)
	for _, app := range apps {
		for _, arch := range archs {
			for _, pressure := range []int{20, 85} {
				gen, err := workload.New(app, 16)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(Config{Arch: arch, Pressure: pressure, CheckCoherence: true}, gen)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Errorf("%s/%v/%d%%: %v", app, arch, pressure, err)
				}
			}
		}
	}
}

// TestCoherenceCheckerPassesApplications runs the six paper applications
// at small scale under the checker on the architectures that stress page
// remapping hardest, on flat memory and on two asymmetric tier layouts
// under each row-buffer page policy. The 30% fast tier fills with home
// pages, so no page ever changes tier; the 90% one leaves the fast tier
// headroom above the home set, which puts the pageout daemon's demote and
// promote flows under the checker.
func TestCoherenceCheckerPassesApplications(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type memory struct {
		name   string
		tiers  []mem.TierSpec
		policy mem.Policy
	}
	mems := []memory{{name: "flat"}}
	for _, layout := range []string{"30:40:60,70:120:300", "90:40:60,10:120:300"} {
		tiers, err := mem.ParseTiers(layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"open", "closed", "hybrid"} {
			pol, err := mem.ParsePolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			mems = append(mems, memory{layout + "/" + name, tiers, pol})
		}
	}
	var promotes, demotes int64
	for _, app := range []string{"barnes", "em3d", "fft", "lu", "ocean", "radix"} {
		for _, arch := range []params.Arch{params.SCOMA, params.RNUMA, params.ASCOMA} {
			for _, mm := range mems {
				gen, err := workload.New(app, 16)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(Config{Arch: arch, Pressure: 80, CheckCoherence: true,
					Tiers: mm.tiers, PagePolicy: mm.policy}, gen)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Errorf("%s/%v/%s: %v", app, arch, mm.name, err)
				}
				p, d := m.DebugTierStats()
				promotes += p
				demotes += d
			}
		}
	}
	if promotes == 0 || demotes == 0 {
		t.Errorf("tiered runs never moved a page (promotes=%d demotes=%d): the checker saw no tier traffic", promotes, demotes)
	}
	t.Logf("checked %d promotions and %d demotions", promotes, demotes)
}

// TestCheckerDetectsViolations feeds the checker a deliberate stale hit to
// prove it is not vacuously green.
func TestCheckerDetectsViolations(t *testing.T) {
	c := newCoherenceChecker(2)
	b := addr.Block(42)
	c.onFetch(1, b)
	c.onWrite(0, b) // node 0 writes; node 1's copy is now stale
	c.onLocalHit(1, b, "L1")
	if c.Err() == nil {
		t.Fatal("stale hit not detected")
	}
}

func TestCheckerDetectsHitWithoutFetch(t *testing.T) {
	c := newCoherenceChecker(2)
	c.onLocalHit(0, addr.Block(7), "RAC")
	if c.Err() == nil {
		t.Fatal("hit-without-fetch not detected")
	}
}

func TestCheckerAcceptsCurrentCopies(t *testing.T) {
	c := newCoherenceChecker(2)
	b := addr.Block(9)
	c.onFetch(1, b)
	c.onLocalHit(1, b, "L1")
	c.onWrite(0, b)
	c.onInvalidate(1, b)
	c.onFetch(1, b)
	c.onLocalHit(1, b, "L1")
	if err := c.Err(); err != nil {
		t.Fatalf("false positive: %v", err)
	}
}

func TestCheckerErrorBounded(t *testing.T) {
	c := newCoherenceChecker(1)
	for i := 0; i < 1000; i++ {
		c.onLocalHit(0, addr.Block(uint64(i)), "L1")
	}
	if c.Err() == nil {
		t.Fatal("no error")
	}
	if len(c.errs) > 16 {
		t.Errorf("error list unbounded: %d", len(c.errs))
	}
}
