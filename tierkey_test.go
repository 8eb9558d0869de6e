package ascoma_test

// Backward-compatibility pin for the tiered-memory PR: a default config
// (Tiers nil, PagePolicy off) must serialize without any tier keys, so the
// content-addressed run-cache key of every pre-tier config is unchanged
// and existing caches stay warm. The hex keys below were captured from the
// seed build immediately before internal/mem landed.

import (
	"encoding/json"
	"strings"
	"testing"

	"ascoma"
	"ascoma/internal/runcache"
)

func TestDefaultConfigOmitsTierKeys(t *testing.T) {
	blob, err := json.Marshal(ascoma.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	if strings.Contains(s, "tiers") || strings.Contains(s, "pagePolicy") {
		t.Fatalf("default Config marshals tier fields: %s", s)
	}
}

func TestRuncacheKeysMatchSeed(t *testing.T) {
	pins := []struct {
		cfg  ascoma.Config
		want runcache.Key
	}{
		{
			ascoma.Config{Arch: ascoma.ASCOMA, Workload: "radix", Pressure: 70, Scale: 8},
			"ac27bf0567df536a4086bcbccfafd6a77793b34172743f9acc354ad5c048e6b0",
		},
		{
			ascoma.Config{Arch: ascoma.CCNUMA, Workload: "fft", Pressure: 50, Scale: 16},
			"6bbe079997df93dbae519ae048c409cca041bc31dec48b747b9df86ebf78aa1d",
		},
		{
			ascoma.Config{Arch: ascoma.SCOMA, Workload: "barnes", Pressure: 10, Scale: 8},
			"86652d23f7b23e69c938fd5b010ec867a2fa0f29c4043f64c22eed73b555b7fd",
		},
		// Captured from the encoding/json preimage before KeyOf appended
		// its preimage by hand: tiers, a page policy, explicit Params and
		// the optional scalars must all hash as they always did.
		{
			ascoma.Config{Arch: ascoma.ASCOMA, Workload: "radix", Pressure: 70, Scale: 8,
				Tiers:      []ascoma.TierSpec{{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60}, {CapacityPct: 70, ReadCycles: 120, WriteCycles: 300}},
				PagePolicy: "hybrid"},
			"7844181c2a1aae0e75170bd4d3d76f78b0c2cf387c19ebab9af2e564682ea853",
		},
		{
			ascoma.Config{Arch: ascoma.SCOMA, Workload: "fft", Pressure: 30, Scale: 4, PagePolicy: "open"},
			"95f2d1da967bde8a28721767f529a51c2a2336c26a2e85ba28273114a643c69e",
		},
		{
			ascoma.Config{Arch: ascoma.RNUMA, Workload: "lu", Pressure: 90, Scale: 4,
				Params: ascoma.DefaultParams(), Quantum: 200, SampleInterval: 5000},
			"93788fbfab6461384e5d878ac4d74dcc4ff3723bb952390081b02e66afe91e42",
		},
	}
	for _, pin := range pins {
		got, err := runcache.KeyOf(pin.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != pin.want {
			t.Errorf("%v/%s@%d: key %s, want pinned key %s (keys must never move: existing disk caches would go cold)",
				pin.cfg.Arch, pin.cfg.Workload, pin.cfg.Pressure, got, pin.want)
		}
	}
	// Tiered configs must NOT collide with their flat counterparts.
	tiered := ascoma.Config{Arch: ascoma.ASCOMA, Workload: "radix", Pressure: 70, Scale: 8,
		Tiers: []ascoma.TierSpec{{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60}, {CapacityPct: 70, ReadCycles: 120, WriteCycles: 300}}}
	tk, err := runcache.KeyOf(tiered)
	if err != nil {
		t.Fatal(err)
	}
	if tk == pins[0].want {
		t.Error("tiered config hashed to the flat seed key")
	}
}
