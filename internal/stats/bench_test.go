package stats

import (
	"math/rand"
	"testing"
)

func BenchmarkPoissonTestLargeLambda(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PoissonTest(1100, 1000, 0.01)
	}
}

func BenchmarkPoissonTestSmallLambda(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PoissonTest(8, 2, 0.01)
	}
}

func BenchmarkSigmaThresholdTinyAlpha(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SigmaThreshold(1e-140)
	}
}

func BenchmarkChiSquareCritical(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ChiSquareCritical(0.001, 20)
	}
}

func BenchmarkChiSquareUniformTest(b *testing.B) {
	counts := make([]int64, 100)
	for i := range counts {
		counts[i] = int64(1000 + i%7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ChiSquareUniformTest(counts)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalQuantile(0.975)
	}
}

// BenchmarkMedianInPlace takes the median of a split-sized sample, as the
// MVB ball mapper does per cluster and attribute.
func BenchmarkMedianInPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 12500)
	for i := range src {
		src[i] = rng.Float64()
	}
	xs := make([]float64, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		MedianInPlace(xs)
	}
}
