package linalg

import (
	"math/rand"
	"testing"
)

func benchSPD(b *testing.B, n int) *Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSPD(rng, n)
}

func BenchmarkCholeskyDecompose(b *testing.B) {
	for _, n := range []int{4, 16, 50} {
		a := benchSPD(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CholeskyDecompose(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMahalanobisSq(b *testing.B) {
	for _, n := range []int{4, 16, 50} {
		a := benchSPD(b, n)
		ch, err := CholeskyDecompose(a)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, n)
		mu := make([]float64, n)
		rng := rand.New(rand.NewSource(2))
		for i := range x {
			x[i] = rng.Float64()
			mu[i] = rng.Float64()
		}
		diff := make([]float64, n)
		solve := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MahalanobisSq(x, mu, ch, diff, solve)
			}
		})
	}
}

// BenchmarkQuadFormBlock times the four-row block solve over a 16-row
// block, beside the per-row QuadForm over the same rows; ns/row compares
// them.
func BenchmarkQuadFormBlock(b *testing.B) {
	const rows = 16
	for _, n := range []int{4, 13, 50} {
		ch, err := CholeskyDecompose(benchSPD(b, n))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		xs := make([]float64, rows*n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		dst := make([]float64, rows)
		scratch := make([]float64, 4*n)
		b.Run(sizeName(n)+"/block", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ch.QuadFormBlock(dst, xs, scratch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
		b.Run(sizeName(n)+"/per-row", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					dst[r] = ch.QuadForm(xs[r*n:(r+1)*n], scratch)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkScatterLower times the weighted lower-triangle scatter update
// of the EM covariance job over a 16-row block; ns/row is per row.
func BenchmarkScatterLower(b *testing.B) {
	const rows = 16
	for _, n := range []int{4, 13, 50} {
		rng := rand.New(rand.NewSource(3))
		xs := make([]float64, rows*n)
		mu := make([]float64, n)
		w := make([]float64, rows)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		for i := range mu {
			mu[i] = rng.Float64()
		}
		for i := range w {
			w[i] = rng.Float64()
		}
		s := make([]float64, n*n)
		scratch := make([]float64, 2*rows*n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ScatterLower(s, w, xs, mu, scratch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

func BenchmarkCovariance(b *testing.B) {
	const n, d = 1000, 16
	rng := rand.New(rand.NewSource(3))
	rows := make([]float64, n*d)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	mu := Mean(rows, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Covariance(rows, d, mu)
	}
}

func BenchmarkLUSolve(b *testing.B) {
	a := benchSPD(b, 16)
	lu, err := LUDecompose(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 16)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	dst := make([]float64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu.Solve(dst, rhs)
	}
}

func sizeName(n int) string {
	switch n {
	case 4:
		return "d=4"
	case 13:
		return "d=13"
	case 16:
		return "d=16"
	default:
		return "d=50"
	}
}
