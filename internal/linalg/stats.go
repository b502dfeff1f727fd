package linalg

// Mean computes the column-wise mean of the rows. Rows is a row-major flat
// slice with the given dimensionality; n = len(rows)/dim samples.
func Mean(rows []float64, dim int) []float64 {
	if dim <= 0 || len(rows)%dim != 0 {
		panic(ErrShape)
	}
	n := len(rows) / dim
	mu := make([]float64, dim)
	if n == 0 {
		return mu
	}
	for i := 0; i < n; i++ {
		row := rows[i*dim : (i+1)*dim]
		for j, v := range row {
			mu[j] += v
		}
	}
	inv := 1 / float64(n)
	for j := range mu {
		mu[j] *= inv
	}
	return mu
}

// Covariance computes the sample covariance matrix (denominator n-1) of the
// row-major data with the given mean. With fewer than two samples the zero
// matrix is returned.
func Covariance(rows []float64, dim int, mu []float64) *Matrix {
	n := len(rows) / dim
	cov := NewMatrix(dim, dim)
	if n < 2 {
		return cov
	}
	diff := make([]float64, dim)
	for i := 0; i < n; i++ {
		row := rows[i*dim : (i+1)*dim]
		for j := range diff {
			diff[j] = row[j] - mu[j]
		}
		for a := 0; a < dim; a++ {
			da := diff[a]
			if da == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := a; b < dim; b++ {
				crow[b] += da * diff[b]
			}
		}
	}
	inv := 1 / float64(n-1)
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// WeightedMoments accumulates the weighted linear sum, weight sum and squared
// weight sum of the rows — the quantities lC, wC and wC² of §5.4 of the
// paper. weights[i] is the weight of row i.
func WeightedMoments(rows []float64, dim int, weights []float64) (linear []float64, w, w2 float64) {
	n := len(rows) / dim
	if len(weights) != n {
		panic(ErrShape)
	}
	linear = make([]float64, dim)
	for i := 0; i < n; i++ {
		wi := weights[i]
		if wi == 0 {
			continue
		}
		row := rows[i*dim : (i+1)*dim]
		for j, v := range row {
			linear[j] += wi * v
		}
		w += wi
		w2 += wi * wi
	}
	return linear, w, w2
}

// WeightedCovariance computes the unbiased weighted sample covariance
//
//	Σ = w/(w² − w2) · Σᵢ wᵢ (xᵢ−µ)(xᵢ−µ)ᵀ
//
// matching the formula in §5.4. It returns the zero matrix when the
// normalizer degenerates.
func WeightedCovariance(rows []float64, dim int, weights, mu []float64) *Matrix {
	n := len(rows) / dim
	cov := NewMatrix(dim, dim)
	var w, w2 float64
	diff := make([]float64, dim)
	for i := 0; i < n; i++ {
		wi := weights[i]
		if wi == 0 {
			continue
		}
		w += wi
		w2 += wi * wi
		row := rows[i*dim : (i+1)*dim]
		for j := range diff {
			diff[j] = row[j] - mu[j]
		}
		for a := 0; a < dim; a++ {
			da := wi * diff[a]
			if da == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := a; b < dim; b++ {
				crow[b] += da * diff[b]
			}
		}
	}
	denom := w*w - w2
	if denom <= 0 {
		return cov
	}
	f := w / denom
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			v := cov.At(a, b) * f
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// RegularizeSPD adds ridge*I (and a floor on diagonal entries) so that a
// covariance estimate becomes numerically positive definite. It mutates and
// returns m.
func RegularizeSPD(m *Matrix, ridge float64) *Matrix {
	n := m.Rows
	for i := 0; i < n; i++ {
		d := m.At(i, i) + ridge
		if d < ridge {
			d = ridge
		}
		m.Set(i, i, d)
	}
	return m
}

// MahalanobisSq returns the squared Mahalanobis distance (x−µ)ᵀ Σ⁻¹ (x−µ)
// using a precomputed Cholesky factor of Σ. diffScratch and solveScratch may
// be nil or caller-provided buffers of length ≥ len(x).
func MahalanobisSq(x, mu []float64, chol *Cholesky, diffScratch, solveScratch []float64) float64 {
	n := len(x)
	if diffScratch == nil {
		diffScratch = make([]float64, n)
	}
	d := diffScratch[:n]
	for i := range d {
		d[i] = x[i] - mu[i]
	}
	return chol.QuadForm(d, solveScratch)
}

// MahalanobisSqBlock sets dst[r] to the squared Mahalanobis distance of
// row r of the row-major block xs (len(dst) rows of len(mu) values) to µ,
// bit-identical to MahalanobisSq row by row. Groups of eight and four rows
// are centred inside the multi-row solves; the remaining rows are centred into
// centred (nil or ≥ len(mu) values) and solved one by one. solveScratch is
// as for QuadFormBlock.
func MahalanobisSqBlock(dst, xs, mu []float64, chol *Cholesky, centred, solveScratch []float64) {
	d := len(mu)
	if len(xs) != len(dst)*d || chol.l.Rows != d {
		panic(ErrShape)
	}
	solveScratch = blockScratch(solveScratch, d, len(dst))
	r := 0
	for ; r+8 <= len(dst); r += 8 {
		chol.quadForm8(dst[r:r+8], xs[r*d:(r+8)*d], mu, solveScratch)
	}
	for ; r+4 <= len(dst); r += 4 {
		chol.quadForm4(dst[r:r+4], xs[r*d:(r+4)*d], mu, solveScratch)
	}
	if r < len(dst) && len(centred) < d {
		centred = make([]float64, d)
	}
	for ; r < len(dst); r++ {
		x, c := xs[r*d:(r+1)*d], centred[:d]
		for i, m := range mu {
			c[i] = x[i] - m
		}
		dst[r] = chol.QuadForm(c, solveScratch)
	}
}

// ScatterLower adds Σ_r w_r·(x_r−µ)(x_r−µ)ᵀ over the len(w) rows x_r of the
// row-major block xs to the lower triangle (a ≥ b) of the row-major d×d
// matrix s. Entry (a, b) gains (w_r·(x_ra−µ_a))·(x_rb−µ_b) from each row
// in row order, skipping rows whose weight or weighted deviation is zero,
// so the lower triangle is bit-identical to a row-by-row full d² update.
// The entries are accumulated in registers, two rows by four columns of s
// at a time, which keeps eight independent addition chains in flight and
// loads each deviation once per eight products. A group of four columns
// may run past the diagonal, so the upper triangle holds scratch until
// MirrorLower overwrites it from the finished lower one. scratch may be nil
// or hold ≥ 2·len(xs) values.
func ScatterLower(s, w, xs, mu, scratch []float64) {
	d, n := len(mu), len(w)
	if len(xs) != n*d || len(s) != d*d {
		panic(ErrShape)
	}
	if len(scratch) < 2*n*d {
		scratch = make([]float64, 2*n*d)
	}
	dev, wdev := scratch[:n*d], scratch[n*d:2*n*d]
	for r, wr := range w {
		x, dv, wd := xs[r*d:(r+1)*d], dev[r*d:(r+1)*d], wdev[r*d:(r+1)*d]
		for a, m := range mu {
			dv[a] = x[a] - m
			wd[a] = 0
			if wr != 0 {
				wd[a] = wr * dv[a]
			}
		}
	}
	a := 0
	for ; a+1 < d; a += 2 {
		s0, s1 := s[a*d:(a+1)*d], s[(a+1)*d:(a+2)*d]
		b := 0
		for ; b <= a+1 && b+4 <= d; b += 4 {
			p0, p1, p2, p3 := s0[b], s0[b+1], s0[b+2], s0[b+3]
			q0, q1, q2, q3 := s1[b], s1[b+1], s1[b+2], s1[b+3]
			for off := 0; off < len(dev); off += d {
				da := wdev[off+a : off+a+2]
				v := dev[off+b : off+b+4]
				if da0 := da[0]; da0 != 0 {
					p0 += da0 * v[0]
					p1 += da0 * v[1]
					p2 += da0 * v[2]
					p3 += da0 * v[3]
				}
				if da1 := da[1]; da1 != 0 {
					q0 += da1 * v[0]
					q1 += da1 * v[1]
					q2 += da1 * v[2]
					q3 += da1 * v[3]
				}
			}
			s0[b], s0[b+1], s0[b+2], s0[b+3] = p0, p1, p2, p3
			s1[b], s1[b+1], s1[b+2], s1[b+3] = q0, q1, q2, q3
		}
		for ; b <= a+1; b++ {
			if b <= a {
				scatterEntry(s0, a, b, dev, wdev, d)
			}
			scatterEntry(s1, a+1, b, dev, wdev, d)
		}
	}
	if a < d {
		// Odd d: the last row on its own, four columns at a time.
		s0 := s[a*d : (a+1)*d]
		b := 0
		for ; b+4 <= d; b += 4 {
			p0, p1, p2, p3 := s0[b], s0[b+1], s0[b+2], s0[b+3]
			for off := 0; off < len(dev); off += d {
				if da := wdev[off+a]; da != 0 {
					v := dev[off+b : off+b+4]
					p0 += da * v[0]
					p1 += da * v[1]
					p2 += da * v[2]
					p3 += da * v[3]
				}
			}
			s0[b], s0[b+1], s0[b+2], s0[b+3] = p0, p1, p2, p3
		}
		for ; b <= a; b++ {
			scatterEntry(s0, a, b, dev, wdev, d)
		}
	}
}

// scatterEntry is ScatterLower's update of the single entry (a, b), held in
// row[b] of row a of s.
func scatterEntry(row []float64, a, b int, dev, wdev []float64, d int) {
	acc := row[b]
	for off := 0; off < len(dev); off += d {
		if da := wdev[off+a]; da != 0 {
			acc += da * dev[off+b]
		}
	}
	row[b] = acc
}

// MirrorLower copies the lower triangle of the row-major d×d matrix s onto
// its upper triangle.
func MirrorLower(s []float64, d int) {
	for a := 0; a < d; a++ {
		for b := 0; b < a; b++ {
			s[b*d+a] = s[a*d+b]
		}
	}
}
