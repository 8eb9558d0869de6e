package estimate

// ForCap exposes For's capacity to the external tests.
const ForCap = forCap

// ForLen returns how many estimators For currently holds.
func ForLen() int {
	forMemo.mu.Lock()
	defer forMemo.mu.Unlock()
	return len(forMemo.m)
}
