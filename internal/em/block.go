package em

import (
	"math"

	"p3cmr/internal/linalg"
)

// BlockRows is how many projected rows the mixture mappers buffer before
// they evaluate the component densities: two passes of the eight-row
// triangular solve, and a block's buffers stay a few KB.
const BlockRows = 16

// Block buffers up to BlockRows projected rows, with the scratch the block
// kernels need. A mapper Adds each record, evaluates the block when Add
// reports it full (and the partial block in Cleanup), folds the results in
// row order and Resets it. Every block result is bit-identical to the
// per-row API's for the same row.
type Block struct {
	d, n    int
	rows    []float64 // BlockRows×d projected rows, row-major
	global  []int     // global index of each buffered row
	ll      []float64 // per-component results, component-major: ll[i*n+r]
	centred []float64 // d: a tail row centred on a mean
	gather  []float64 // BlockRows×d rows of one component (Mahalanobis)
	solve   []float64 // 8×d triangular-solve scratch
}

// NewBlock returns an empty block for the model's subspace and components.
func (m *Model) NewBlock() *Block {
	d := len(m.Attrs)
	return &Block{
		d:       d,
		rows:    make([]float64, BlockRows*d),
		global:  make([]int, BlockRows),
		ll:      make([]float64, BlockRows*m.K()),
		centred: make([]float64, d),
		gather:  make([]float64, BlockRows*d),
		solve:   make([]float64, 8*d),
	}
}

// Add projects the full-dimensional row onto the model's subspace and
// buffers it under its global index. It reports whether the block is full.
func (b *Block) Add(m *Model, global int, row []float64) bool {
	m.Project(b.rows[b.n*b.d:(b.n+1)*b.d], row)
	b.global[b.n] = global
	b.n++
	return b.n == BlockRows
}

// Len returns the number of buffered rows.
func (b *Block) Len() int { return b.n }

// Row returns buffered projected row r.
func (b *Block) Row(r int) []float64 { return b.rows[r*b.d : (r+1)*b.d] }

// Rows returns the buffered projected rows, row-major.
func (b *Block) Rows() []float64 { return b.rows[:b.n*b.d] }

// Global returns the global index of buffered row r.
func (b *Block) Global(r int) int { return b.global[r] }

// Reset empties the block.
func (b *Block) Reset() { b.n = 0 }

// logPDFBlock sets dst[r] = ln p(x_r|G), plus ln π when weighted, for the
// rows of the row-major projected block xs. The hoisted constants keep the
// association of −0.5·(|Arel|·ln 2π + ln det Σ + m²), so the bits match a
// direct evaluation.
func (c *Component) logPDFBlock(dst, xs []float64, weighted bool, centred, solve []float64) {
	linalg.MahalanobisSqBlock(dst, xs, c.Mean, c.chol, centred, solve)
	if weighted {
		for r, m2 := range dst {
			dst[r] = c.logW + -0.5*(c.norm+m2)
		}
		return
	}
	for r, m2 := range dst {
		dst[r] = -0.5 * (c.norm + m2)
	}
}

// logDensities sets ll[i*n+r] = ln p(x_r|G_i) for every component i and
// each of the n rows of xs. When weighted, ln π_i is added and components
// with π_i ≤ 0 get −Inf without being evaluated.
func (m *Model) logDensities(ll, xs []float64, n int, weighted bool, centred, solve []float64) {
	for i, c := range m.Components {
		dst := ll[i*n : (i+1)*n]
		if weighted && math.IsInf(c.logW, -1) {
			for r := range dst {
				dst[r] = math.Inf(-1)
			}
			continue
		}
		c.logPDFBlock(dst, xs, weighted, centred, solve)
	}
}

// posterior turns row r's weighted log densities ll[i*n+r] into the
// posteriors resp[i] ∝ π_i·p(x|G_i) and returns ln p(x). resp may alias ll
// when n is 1.
func posterior(resp, ll []float64, r, n int) float64 {
	k := len(resp)
	maxLL := math.Inf(-1)
	for i := 0; i < k; i++ {
		if v := ll[i*n+r]; v > maxLL {
			maxLL = v
		}
	}
	if math.IsInf(maxLL, -1) {
		// All components degenerate: uniform responsibilities.
		for i := range resp {
			resp[i] = 1 / float64(k)
		}
		return math.Inf(-1)
	}
	sum := 0.0
	for i := range resp {
		resp[i] = math.Exp(ll[i*n+r] - maxLL)
		sum += resp[i]
	}
	for i := range resp {
		resp[i] /= sum
	}
	return maxLL + math.Log(sum)
}

// BlockResponsibilities sets resp[r*k+i] = p(G_i|x_r) and ll[r] = ln p(x_r)
// for the rows buffered in b.
func (m *Model) BlockResponsibilities(resp, ll []float64, b *Block) {
	n, k := b.n, m.K()
	m.logDensities(b.ll[:k*n], b.rows[:n*b.d], n, true, b.centred, b.solve)
	for r := 0; r < n; r++ {
		ll[r] = posterior(resp[r*k:(r+1)*k], b.ll, r, n)
	}
}

// BlockMostLikely sets dst[r] = argmax_i p(x_r|G_i) for the rows buffered
// in b: the paper's assignment rule (likelihood, not posterior; §3.2.2).
func (m *Model) BlockMostLikely(dst []int, b *Block) {
	n := b.n
	m.logDensities(b.ll[:m.K()*n], b.rows[:n*b.d], n, false, b.centred, b.solve)
	for r := 0; r < n; r++ {
		best, bestLL := 0, math.Inf(-1)
		for i := range m.Components {
			if v := b.ll[i*n+r]; v > bestLL {
				best, bestLL = i, v
			}
		}
		dst[r] = best
	}
}

// BlockMahalanobis sets dst[r] to the Mahalanobis distance (not squared)
// of buffered row r to component comp[r]. Rows are evaluated in groups per
// component so the multi-row solves still apply.
func (m *Model) BlockMahalanobis(dst []float64, comp []int, b *Block) {
	d := b.d
	for i, c := range m.Components {
		g := 0
		for r := 0; r < b.n; r++ {
			if comp[r] == i {
				copy(b.gather[g*d:(g+1)*d], b.Row(r))
				g++
			}
		}
		if g == 0 {
			continue
		}
		m2 := b.ll[:g]
		linalg.MahalanobisSqBlock(m2, b.gather[:g*d], c.Mean, c.chol, b.centred, b.solve)
		g = 0
		for r := 0; r < b.n; r++ {
			if comp[r] == i {
				dst[r] = math.Sqrt(m2[g])
				g++
			}
		}
	}
}

// LogPDF returns log p(x|G_i) for the projected point x.
func (m *Model) LogPDF(i int, x []float64, diffScratch, solveScratch []float64) float64 {
	var out [1]float64
	m.Components[i].logPDFBlock(out[:], x, false, diffScratch, solveScratch)
	return out[0]
}

// MostLikely returns argmax_i p(x|G_i) — the paper's cluster assignment rule
// (likelihood, not posterior; §3.2.2) — for a projected point.
func (m *Model) MostLikely(x []float64, diffScratch, solveScratch []float64) int {
	best, bestLL := 0, math.Inf(-1)
	for i := range m.Components {
		if ll := m.LogPDF(i, x, diffScratch, solveScratch); ll > bestLL {
			best, bestLL = i, ll
		}
	}
	return best
}

// Responsibilities fills resp[i] with the posterior p(G_i|x) ∝ π_i·p(x|G_i)
// for the projected point x, returning the total log-likelihood log p(x).
func (m *Model) Responsibilities(resp, x []float64, diffScratch, solveScratch []float64) float64 {
	resp = resp[:m.K()]
	m.logDensities(resp, x, 1, true, diffScratch, solveScratch)
	return posterior(resp, resp, 0, 1)
}

// Mahalanobis returns the Mahalanobis distance (not squared) of the
// projected point x to component i.
func (m *Model) Mahalanobis(i int, x []float64, diffScratch, solveScratch []float64) float64 {
	var m2 [1]float64
	c := m.Components[i]
	linalg.MahalanobisSqBlock(m2[:], x, c.Mean, c.chol, diffScratch, solveScratch)
	return math.Sqrt(m2[0])
}
