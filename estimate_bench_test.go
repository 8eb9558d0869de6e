package ascoma_test

// BenchmarkEstimateRequest lives beside BenchmarkEstimate (bench_test.go)
// in an external test package: it calls internal/jobs, which imports the
// ascoma package that bench_test.go belongs to.

import (
	"testing"

	"ascoma/internal/jobs"
)

// BenchmarkEstimateRequest prices one warm POST /api/v1/estimate body end
// to end, minus HTTP: EstimateSpec.Predictions validates the spec, fetches
// the estimator and predicts the default 6-arch x 5-pressure grid. One op
// answers fft and radix at scale 4, the smallest and largest page-class
// counts of the figure apps; the first (profile-building) request is paid
// before the timer starts.
func BenchmarkEstimateRequest(b *testing.B) {
	b.ReportAllocs()
	specs := []jobs.EstimateSpec{{Workload: "fft", Scale: 4}, {Workload: "radix", Scale: 4}}
	for _, s := range specs {
		if _, err := s.Predictions(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			preds, err := s.Predictions()
			if err != nil {
				b.Fatal(err)
			}
			n += len(preds)
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "preds/op")
}
