package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ascoma/internal/runcache"
)

// BenchmarkRunWarm measures the POST /api/v1/run handler answering from a
// filled memory cache (radix AS-COMA@50, scale 8): request decode, cache
// key, LRU hit and response encoding, without the network transport.
func BenchmarkRunWarm(b *testing.B) {
	s := New(Config{Cache: runcache.NewWithBackends(64), Jobs: 1, Timeout: time.Minute})
	defer s.Close()
	h := s.Handler()
	const body = `{"arch":"AS-COMA","workload":"radix","pressure":50,"scale":8}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("run: %d %s", rec.Code, rec.Body)
		}
		return rec
	}
	serve() // the one cold simulation fills the cache
	sims := s.cache.Stats().Sims
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if got := s.cache.Stats().Sims; got != sims {
		b.Fatalf("warm requests simulated %d cells", got-sims)
	}
}
