package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// blockDims are the subspace sizes the block kernels are checked at: the
// four-row solve's edge cases, the benchmark's |Arel| = 13, and a larger one.
var blockDims = []int{1, 2, 3, 4, 5, 13, 20}

func randomRows(rng *rand.Rand, rows, d int) []float64 {
	xs := make([]float64, rows*d)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// TestQuadFormBlockBitIdentical: every row of the block result equals the
// per-row QuadForm to the bit, for full four-row groups and every tail.
func TestQuadFormBlockBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range blockDims {
		ch, err := CholeskyDecompose(randomSPD(rng, d))
		if err != nil {
			t.Fatal(err)
		}
		for rows := 1; rows <= 17; rows++ {
			xs := randomRows(rng, rows, d)
			got := make([]float64, rows)
			ch.QuadFormBlock(got, xs, nil)
			for r := range got {
				want := ch.QuadForm(xs[r*d:(r+1)*d], nil)
				if math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("d=%d rows=%d row %d: block %x, per-row %x", d, rows, r, math.Float64bits(got[r]), math.Float64bits(want))
				}
			}
		}
	}
}

func TestMahalanobisSqBlockBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, d := range blockDims {
		ch, err := CholeskyDecompose(randomSPD(rng, d))
		if err != nil {
			t.Fatal(err)
		}
		mu := randomRows(rng, 1, d)
		for rows := 1; rows <= 17; rows++ {
			xs := randomRows(rng, rows, d)
			got := make([]float64, rows)
			MahalanobisSqBlock(got, xs, mu, ch, make([]float64, rows*d), make([]float64, 4*d))
			for r := range got {
				want := MahalanobisSq(xs[r*d:(r+1)*d], mu, ch, nil, nil)
				if math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("d=%d rows=%d row %d: block %g, per-row %g", d, rows, r, got[r], want)
				}
			}
		}
	}
}

// fullScatter is the full d² scatter update the mappers used before
// ScatterLower: the oracle for the lower triangle's bits.
func fullScatter(s []float64, w float64, x, mu []float64) {
	d := len(mu)
	for a := 0; a < d; a++ {
		da := w * (x[a] - mu[a])
		if da == 0 {
			continue
		}
		for b := 0; b < d; b++ {
			s[a*d+b] += da * (x[b] - mu[b])
		}
	}
}

// TestScatterLowerMatchesFullScatter: the lower triangle ScatterLower
// accumulates over a block is bit-identical to full row-by-row updates,
// for every block size up to 17 rows, and MirrorLower makes the result
// exactly symmetric. Zero weights and zero deviations exercise the skips.
func TestScatterLowerMatchesFullScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, d := range blockDims {
		mu := randomRows(rng, 1, d)
		full := make([]float64, d*d)
		lower := make([]float64, d*d)
		for rows := 1; rows <= 17; rows++ {
			xs := randomRows(rng, rows, d)
			w := make([]float64, rows)
			for r := range w {
				xs[r*d+rng.Intn(d)] = mu[0]
				switch r % 5 {
				case 0:
					w[r] = 0
				case 1:
					w[r] = 1
				default:
					w[r] = rng.Float64()
				}
				if w[r] != 0 {
					fullScatter(full, w[r], xs[r*d:(r+1)*d], mu)
				}
			}
			ScatterLower(lower, w, xs, mu, nil)
			for a := 0; a < d; a++ {
				for b := 0; b <= a; b++ {
					if math.Float64bits(lower[a*d+b]) != math.Float64bits(full[a*d+b]) {
						t.Fatalf("d=%d rows=%d (%d,%d): lower %g, full %g", d, rows, a, b, lower[a*d+b], full[a*d+b])
					}
				}
			}
		}
		MirrorLower(lower, d)
		for a := 0; a < d; a++ {
			for b := 0; b < a; b++ {
				if math.Float64bits(lower[b*d+a]) != math.Float64bits(lower[a*d+b]) {
					t.Fatalf("d=%d: mirrored (%d,%d) differs", d, b, a)
				}
			}
		}
	}
}

// TestScatterLowerNonFinite: with an infinite coordinate in the block the
// skips decide the bits — a zero-weight row, or a zero deviation times an
// infinite one, must add nothing rather than NaN — so they match the full
// update's skips exactly.
func TestScatterLowerNonFinite(t *testing.T) {
	const d = 5
	mu := []float64{0.5, 0.25, 0.75, 0.5, 0.1}
	xs := []float64{
		0.5, math.Inf(1), 0.3, 0.9, 0.2, // zero deviation on 0, infinite on 1
		0.1, 0.2, 0.75, math.Inf(-1), 0.4, // zero deviation on 2
		math.Inf(1), 0.3, 0.2, 0.1, 0.6, // zero weight
		0.7, 0.5, 0.4, 0.3, 0.2,
	}
	w := []float64{0.5, 1, 0, 0.25}
	full := make([]float64, d*d)
	for r, wr := range w {
		if wr != 0 {
			fullScatter(full, wr, xs[r*d:(r+1)*d], mu)
		}
	}
	lower := make([]float64, d*d)
	ScatterLower(lower, w, xs, mu, nil)
	for a := 0; a < d; a++ {
		for b := 0; b <= a; b++ {
			if math.Float64bits(lower[a*d+b]) != math.Float64bits(full[a*d+b]) {
				t.Fatalf("(%d,%d): lower %g, full %g", a, b, lower[a*d+b], full[a*d+b])
			}
		}
	}
}
