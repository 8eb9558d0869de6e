package runcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"ascoma"
)

func TestKeyOfNormalizesPagePolicyNone(t *testing.T) {
	cfg := testCfg(50)
	plain, _ := KeyOf(cfg)
	cfg.PagePolicy = "none"
	none, _ := KeyOf(cfg)
	if none != plain {
		t.Errorf(`pagePolicy "none" keys %s, "" keys %s: the same model must share one key`, none, plain)
	}
	cfg.PagePolicy = "open"
	if open, _ := KeyOf(cfg); open == plain {
		t.Error(`pagePolicy "open" shares the key of ""`)
	}
}

// fillRNG is a splitmix64 stream: every fuzz input seeds a full, mostly
// nonzero assignment of the config's integers.
type fillRNG uint64

func (r *fillRNG) next() int64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// fill sets every exported, JSON-visible field reachable from v: integers
// from r, strings from strs in turn, slices to n elements. A field of any
// other kind fails the test, so nothing added to Config, Params or
// TierSpec escapes the preimage comparison.
func fill(t *testing.T, v reflect.Value, r *fillRNG, strs []string, n int, next *int) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := r.next()
		switch x & 7 { // edge values often enough to matter
		case 0:
			x = 0
		case 1:
			x = -1 << 63
		case 2:
			x %= 1000
		}
		v.SetInt(x)
	case reflect.String:
		v.SetString(strs[*next%len(strs)])
		*next++
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(t, v.Index(i), r, strs, n, next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			fill(t, v.Field(i), r, strs, n, next)
		}
	default:
		t.Fatalf("fill: %s has kind %s; teach fill and appendConfig about it", v.Type(), v.Kind())
	}
}

// FuzzKeyPreimage holds the hand-appended key preimage byte-identical to
// json.Marshal(cfg) over arbitrary field values, tier lists and strings
// carrying quotes, HTML characters, control bytes and non-ASCII.
func FuzzKeyPreimage(f *testing.F) {
	f.Add(uint64(1), "radix", "hybrid", uint8(2))
	f.Add(uint64(0), `<a href="x">&amp;\`, "\x00\x1f\n\t \xff", uint8(4))
	f.Add(^uint64(0), "日本語", "none", uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, s1, s2 string, ntiers uint8) {
		var cfg ascoma.Config
		r, next := fillRNG(seed), 0
		fill(t, reflect.ValueOf(&cfg).Elem(), &r, []string{s1, s2}, int(ntiers%6), &next)
		want, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendConfig(nil, &cfg); string(got) != string(want) {
			t.Fatalf("preimage differs from json.Marshal:\ngot  %s\nwant %s", got, want)
		}

		// KeyOf hashes that preimage after its normalizations.
		norm := cfg
		norm.Scale = max(norm.Scale, 1)
		if norm.PagePolicy == "none" {
			norm.PagePolicy = ""
		}
		blob, _ := json.Marshal(norm)
		sum := sha256.Sum256(append([]byte(keyVersion+"\n"), blob...))
		if got, _ := KeyOf(cfg); got != Key(hex.EncodeToString(sum[:])) {
			t.Fatalf("KeyOf = %s, want the SHA-256 of the encoding/json preimage %x", got, sum)
		}
	})
}

// BenchmarkKeyOf measures the content address of a tiered scale-8 cell:
// the preimage append plus SHA-256 and hex, paid on every cached lookup.
func BenchmarkKeyOf(b *testing.B) {
	cfg := ascoma.Config{Arch: ascoma.ASCOMA, Workload: "radix", Pressure: 70, Scale: 8,
		Tiers:      []ascoma.TierSpec{{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60}, {CapacityPct: 70, ReadCycles: 120, WriteCycles: 300}},
		PagePolicy: "hybrid"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KeyOf(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunWarmHitAllocs pins the cost of a memory hit in Runner.Run: the
// key string and at most one more allocation, no encoder state.
func TestRunWarmHitAllocs(t *testing.T) {
	c, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: c, Jobs: 1}
	cfg := ascoma.Config{Arch: ascoma.ASCOMA, Workload: "uniform", Pressure: 50, Scale: 64,
		Tiers: []ascoma.TierSpec{{CapacityPct: 30, ReadCycles: 40, WriteCycles: 60}, {CapacityPct: 70, ReadCycles: 120, WriteCycles: 300}}, PagePolicy: "hybrid"}
	ctx := context.Background()
	if _, err := r.Run(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	sims := c.Stats().Sims
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Run(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got := c.Stats().Sims; got != sims {
		t.Fatalf("warm runs simulated %d times", got-sims)
	}
	if allocs > 2 {
		t.Errorf("a warm Runner.Run allocates %.0f times, want at most 2", allocs)
	}
}
