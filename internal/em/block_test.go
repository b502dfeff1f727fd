package em

import (
	"math"
	"math/rand"
	"testing"

	"p3cmr/internal/linalg"
)

// refLogPDF is the per-row Gaussian log density as computed before the
// block kernels: the oracle their bits are checked against.
func refLogPDF(c *Component, x []float64) float64 {
	k := float64(len(x))
	m2 := linalg.MahalanobisSq(x, c.Mean, c.chol, nil, nil)
	return -0.5 * (k*math.Log(2*math.Pi) + c.chol.LogDet() + m2)
}

// refResponsibilities is the per-row posterior as computed before the block
// kernels.
func refResponsibilities(m *Model, resp, x []float64) float64 {
	k := m.K()
	maxLL := math.Inf(-1)
	for i := 0; i < k; i++ {
		w := m.Components[i].Weight
		if w <= 0 {
			resp[i] = math.Inf(-1)
			continue
		}
		resp[i] = math.Log(w) + refLogPDF(m.Components[i], x)
		if resp[i] > maxLL {
			maxLL = resp[i]
		}
	}
	if math.IsInf(maxLL, -1) {
		for i := 0; i < k; i++ {
			resp[i] = 1 / float64(k)
		}
		return math.Inf(-1)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		resp[i] = math.Exp(resp[i] - maxLL)
		sum += resp[i]
	}
	for i := 0; i < k; i++ {
		resp[i] /= sum
	}
	return maxLL + math.Log(sum)
}

// randomModel builds a prepared k-component mixture on the first d of dim
// attributes with random SPD covariances. weights overrides the mixing
// proportions when non-nil.
func randomModel(t *testing.T, rng *rand.Rand, d, dim, k int, weights []float64) *Model {
	t.Helper()
	m := &Model{}
	for a := 0; a < d; a++ {
		m.Attrs = append(m.Attrs, (a*3)%dim)
	}
	for i := 0; i < k; i++ {
		b := linalg.NewMatrix(d, d)
		for j := range b.Data {
			b.Data[j] = rng.NormFloat64() * 0.1
		}
		cov := linalg.Mul(b, b.Transpose())
		for j := 0; j < d; j++ {
			cov.Set(j, j, cov.At(j, j)+0.01)
		}
		mean := make([]float64, d)
		for j := range mean {
			mean[j] = rng.Float64()
		}
		w := 1 / float64(k)
		if weights != nil {
			w = weights[i]
		}
		m.Components = append(m.Components, &Component{Weight: w, Mean: mean, Cov: cov})
	}
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	return m
}

// blockCase is one mixture shape the block oracles run over.
type blockCase struct {
	name    string
	k       int
	weights []float64
}

var blockCases = []blockCase{
	{"uniform", 3, nil},
	{"zero-weight", 3, []float64{0.5, 0, 0.5}},
	{"all-degenerate", 2, []float64{0, 0}},
	{"single", 1, nil},
}

// feed pushes rows full-dimensional rows through a block, calling eval on
// every full block and the final partial one, as a mapper does.
func feed(m *Model, rows [][]float64, eval func(b *Block, first int)) {
	b := m.NewBlock()
	first := 0
	for i, row := range rows {
		if b.Add(m, i, row) {
			eval(b, first)
			first += b.Len()
			b.Reset()
		}
	}
	if b.Len() > 0 {
		eval(b, first)
	}
}

func randomFullRows(rng *rand.Rand, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	return rows
}

// TestBlockKernelsBitIdentical checks BlockResponsibilities,
// BlockMostLikely and BlockMahalanobis, and the per-row wrappers, against
// the pre-block per-row arithmetic to the bit, over subspace sizes, block
// fills of 1 to 17 rows, and zero-weight and all-degenerate mixtures.
func TestBlockKernelsBitIdentical(t *testing.T) {
	const dim = 23
	rng := rand.New(rand.NewSource(31))
	for _, bc := range blockCases {
		for _, d := range []int{1, 2, 3, 4, 5, 13, 20} {
			m := randomModel(t, rng, d, dim, bc.k, bc.weights)
			k := m.K()
			for n := 1; n <= BlockRows+1; n++ {
				rows := randomFullRows(rng, n, dim)
				resp := make([]float64, BlockRows*k)
				ll := make([]float64, BlockRows)
				likely := make([]int, BlockRows)
				comp := make([]int, BlockRows)
				dist := make([]float64, BlockRows)
				want := make([]float64, k)
				feed(m, rows, func(b *Block, first int) {
					m.BlockResponsibilities(resp, ll, b)
					m.BlockMostLikely(likely, b)
					for r := range comp[:b.Len()] {
						comp[r] = r % k // exercise every component
					}
					m.BlockMahalanobis(dist, comp, b)
					for r := 0; r < b.Len(); r++ {
						x := m.Project(nil, rows[first+r])
						wantLL := refResponsibilities(m, want, x)
						gotRow := resp[r*k : (r+1)*k]
						perRow := make([]float64, k)
						perRowLL := m.Responsibilities(perRow, x, nil, nil)
						for i := range want {
							if math.Float64bits(gotRow[i]) != math.Float64bits(want[i]) || math.Float64bits(perRow[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s d=%d n=%d row %d: resp[%d] block %g, per-row %g, want %g", bc.name, d, n, first+r, i, gotRow[i], perRow[i], want[i])
							}
						}
						if math.Float64bits(ll[r]) != math.Float64bits(wantLL) || math.Float64bits(perRowLL) != math.Float64bits(wantLL) {
							t.Fatalf("%s d=%d n=%d row %d: ll block %g, per-row %g, want %g", bc.name, d, n, first+r, ll[r], perRowLL, wantLL)
						}
						best, bestLL := 0, math.Inf(-1)
						for i, c := range m.Components {
							v := refLogPDF(c, x)
							if math.Float64bits(m.LogPDF(i, x, nil, nil)) != math.Float64bits(v) {
								t.Fatalf("%s d=%d: LogPDF(%d) differs from the oracle", bc.name, d, i)
							}
							if v > bestLL {
								best, bestLL = i, v
							}
						}
						if got := m.MostLikely(x, nil, nil); got != best {
							t.Fatalf("%s d=%d n=%d row %d: MostLikely %d, want %d", bc.name, d, n, first+r, got, best)
						}
						if likely[r] != best {
							t.Fatalf("%s d=%d n=%d row %d: BlockMostLikely %d, want %d", bc.name, d, n, first+r, likely[r], best)
						}
						c := m.Components[comp[r]]
						wantDist := math.Sqrt(linalg.MahalanobisSq(x, c.Mean, c.chol, nil, nil))
						if math.Float64bits(dist[r]) != math.Float64bits(wantDist) {
							t.Fatalf("%s d=%d n=%d row %d: BlockMahalanobis %g, want %g", bc.name, d, n, first+r, dist[r], wantDist)
						}
					}
				})
			}
		}
	}
}

// TestBlockGlobalIndices: a block reports each buffered row's global index
// and projection in insertion order.
func TestBlockGlobalIndices(t *testing.T) {
	m := &Model{Attrs: []int{2, 0}, Components: []*Component{{}}}
	b := m.NewBlock()
	for i := 0; i < 5; i++ {
		if b.Add(m, 100+i, []float64{float64(i), -1, float64(10 * i)}) {
			t.Fatal("block full after 5 rows")
		}
	}
	for r := 0; r < b.Len(); r++ {
		if b.Global(r) != 100+r || b.Row(r)[0] != float64(10*r) || b.Row(r)[1] != float64(r) {
			t.Fatalf("row %d: global %d, projection %v", r, b.Global(r), b.Row(r))
		}
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset left rows buffered")
	}
}

// TestLogPDFIntegratesToDensity: the 1-D standard normal's log density at
// its mean is −0.5·ln 2π.
func TestLogPDFIntegratesToDensity(t *testing.T) {
	m := &Model{Attrs: []int{0}, Components: []*Component{{
		Weight: 1, Mean: []float64{0}, Cov: linalg.NewMatrixFrom(1, 1, []float64{1}),
	}}}
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	got := m.LogPDF(0, []float64{0}, nil, nil)
	if want := -0.5 * math.Log(2*math.Pi); math.Abs(got-want) > 1e-9 { // Prepare adds a 1e-9 ridge
		t.Fatalf("logPDF = %g, want %g", got, want)
	}
}
