package em

import (
	"math/rand"
	"testing"

	"p3cmr/internal/linalg"
)

// benchModel is a k = 4 mixture on |Arel| = 13 of 20 attributes, the shape
// of the benchmark's mvb-200k EM phase, with BlockRows rows to evaluate.
func benchModel(b *testing.B) (*Model, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	m := &Model{}
	for a := 0; a < 13; a++ {
		m.Attrs = append(m.Attrs, a+a/2)
	}
	d := len(m.Attrs)
	for i := 0; i < 4; i++ {
		a := linalg.NewMatrix(d, d)
		for j := range a.Data {
			a.Data[j] = rng.NormFloat64() * 0.05
		}
		cov := linalg.Mul(a, a.Transpose())
		for j := 0; j < d; j++ {
			cov.Set(j, j, cov.At(j, j)+0.01)
		}
		mean := make([]float64, d)
		for j := range mean {
			mean[j] = rng.Float64()
		}
		m.Components = append(m.Components, &Component{Weight: 0.25, Mean: mean, Cov: cov})
	}
	if err := m.Prepare(); err != nil {
		b.Fatal(err)
	}
	rows := make([][]float64, BlockRows)
	for r := range rows {
		rows[r] = make([]float64, 20)
		for j := range rows[r] {
			rows[r][j] = rng.Float64()
		}
	}
	return m, rows
}

// BenchmarkBlockResponsibilities times the posteriors of one block against
// the per-row Responsibilities over the same rows; ns/row compares them.
func BenchmarkBlockResponsibilities(b *testing.B) {
	m, rows := benchModel(b)
	k, d := m.K(), len(m.Attrs)
	blk := m.NewBlock()
	for r, row := range rows {
		blk.Add(m, r, row)
	}
	resp := make([]float64, BlockRows*k)
	ll := make([]float64, BlockRows)
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.BlockResponsibilities(resp, ll, blk)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BlockRows), "ns/row")
	})
	diff, solve := make([]float64, d), make([]float64, d)
	b.Run("per-row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < BlockRows; r++ {
				m.Responsibilities(resp[r*k:(r+1)*k], blk.Row(r), diff, solve)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BlockRows), "ns/row")
	})
}

// BenchmarkEMScatterUpdate times the em-cov mapper's per-block work after
// the posteriors: one lower-triangle scatter update per component.
func BenchmarkEMScatterUpdate(b *testing.B) {
	m, rows := benchModel(b)
	mp := &covMapper{model: m, means: make([][]float64, m.K())}
	for i, c := range m.Components {
		mp.means[i] = c.Mean
	}
	if err := mp.Setup(nil); err != nil {
		b.Fatal(err)
	}
	for r, row := range rows {
		mp.block.Add(m, r, row)
	}
	m.BlockResponsibilities(mp.resp, mp.ll, mp.block)
	k := m.K()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < k; c++ {
			for r := range mp.w {
				mp.w[r] = mp.resp[r*k+c]
			}
			linalg.ScatterLower(mp.scatters[c].S, mp.w, mp.block.Rows(), mp.means[c], mp.scratch)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BlockRows), "ns/row")
}
