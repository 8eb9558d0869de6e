package estimate

import (
	"sync"

	"ascoma/internal/mem"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// forCap bounds the estimators For keeps. A tier configuration arrives in
// HTTP bodies, so the key space is unbounded; the memo holds the newest
// forCap keys and evicts in insertion order. Each entry is a few KB.
const forCap = 64

// forKey identifies one estimator: a workload at one scale under one tier
// configuration (mem.SigOf; "" is flat memory).
type forKey struct {
	workload string
	scale    int
	tiers    string
}

// forEntry builds its estimator once; callers that find the entry while
// the build runs wait on once, not on the memo's lock.
type forEntry struct {
	once sync.Once
	est  *Estimator
	err  error
}

// forMemo is For's bounded memo. order is a ring of the keys in insertion
// order; once the memo is full, order[next] is the oldest key.
var forMemo = struct {
	mu    sync.Mutex
	m     map[forKey]*forEntry
	order [forCap]forKey
	next  int
}{m: make(map[forKey]*forEntry, forCap)}

// For returns the shared estimator for a registered workload at scale
// under the default parameters and the given tier configuration, building
// it (profile replay, tables, baseline) on first use. Concurrent callers
// with one key get one *Estimator; callers must not call SetTiers on it.
// Errors are those of workload.ProfileFor and New, memoized with the key.
func For(name string, scale int, tiers []mem.TierSpec, pol mem.Policy) (*Estimator, error) {
	k := forKey{name, scale, mem.SigOf(tiers, pol)}
	forMemo.mu.Lock()
	ent, ok := forMemo.m[k]
	if !ok {
		if len(forMemo.m) == forCap {
			delete(forMemo.m, forMemo.order[forMemo.next])
		}
		ent = &forEntry{}
		forMemo.m[k] = ent
		forMemo.order[forMemo.next] = k
		forMemo.next = (forMemo.next + 1) % forCap
	}
	forMemo.mu.Unlock()
	ent.once.Do(func() { ent.est, ent.err = build(name, scale, tiers, pol) })
	return ent.est, ent.err
}

// build constructs one estimator for For.
func build(name string, scale int, tiers []mem.TierSpec, pol mem.Policy) (*Estimator, error) {
	prof, err := workload.ProfileFor(name, scale)
	if err != nil {
		return nil, err
	}
	est, err := New(prof, params.Default())
	if err != nil {
		return nil, err
	}
	if len(tiers) > 0 || pol != mem.PolicyNone {
		est.SetTiers(tiers, pol)
	}
	return est, nil
}
