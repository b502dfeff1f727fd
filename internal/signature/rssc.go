package signature

import (
	"math/bits"
	"sort"
)

// RSSC is the Rapid Signature Support Counter of §5.3: for a fixed set of
// signatures it precomputes, per relevant attribute, a binning derived from
// all interval endpoints and a bit vector per bin. The surviving bits of the
// AND of a point's per-attribute bin vectors identify exactly the signatures
// whose support set contains the point (Figure 3). A bit is 1 when the
// signature either does not constrain the attribute or its interval covers
// the bin.
//
// The pipeline uses it only where a job needs each point's membership set:
// light-membership, the EM initialization's core moments and BoW's
// assignment. Jobs that need only counts per signature count vertically
// instead (see ColumnIndex).
//
// Bins are exact: interval bounds are closed, so every endpoint becomes a
// singleton region and the gaps between endpoints become open regions —
// points exactly on a boundary are classified correctly.
//
// A query first finds the point's bin on every relevant attribute by binary
// search. It then runs over the output in blocks of eight words: a block
// ANDs the selected bin vectors attribute by attribute and stops as soon as
// all eight words are zero. An RSSC is never written after NewRSSC, so
// concurrent queries may share one.
type RSSC struct {
	sigs  []Signature
	words int
	// attrs lists the constrained attributes in ascending order; per attr:
	// boundaries (sorted unique endpoint values) and masks[region] bit sets.
	attrs []rsscAttr
	// full is the all-ones mask over len(sigs) bits.
	full []uint64
}

type rsscAttr struct {
	attr       int
	boundaries []float64
	masks      [][]uint64 // len == 2*len(boundaries)+1
}

// queryChunk is how many attributes' selected bin vectors Query gathers on
// the stack before ANDing them block by block.
const queryChunk = 32

// NewRSSC builds the counter for the given signatures. An empty signature
// list yields a counter whose queries return the empty set.
func NewRSSC(sigs []Signature) *RSSC {
	n := len(sigs)
	words := (n + 63) / 64
	r := &RSSC{sigs: sigs, words: words, full: make([]uint64, words)}
	for j := 0; j < n; j++ {
		r.full[j/64] |= 1 << (j % 64)
	}

	// Collect endpoints per constrained attribute.
	perAttr := make(map[int][]float64)
	for _, s := range sigs {
		for _, iv := range s.Intervals {
			perAttr[iv.Attr] = append(perAttr[iv.Attr], iv.Lo, iv.Hi)
		}
	}
	attrs := make([]int, 0, len(perAttr))
	for a := range perAttr {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)

	for _, a := range attrs {
		bs := dedupFloats(perAttr[a])
		ra := rsscAttr{attr: a, boundaries: bs}
		regions := 2*len(bs) + 1
		ra.masks = make([][]uint64, regions)
		for reg := 0; reg < regions; reg++ {
			mask := make([]uint64, words)
			copy(mask, r.full)
			for j, s := range sigs {
				iv, ok := s.IntervalOn(a)
				if !ok {
					continue // attribute irrelevant for s: bit stays 1
				}
				if !regionInside(reg, bs, iv) {
					mask[j/64] &^= 1 << (j % 64)
				}
			}
			ra.masks[reg] = mask
		}
		r.attrs = append(r.attrs, ra)
	}
	return r
}

// dedupFloats sorts and removes duplicates.
func dedupFloats(xs []float64) []float64 {
	sort.Float64s(xs)
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// region maps x onto the region scheme over the boundaries:
// region 0 = (−inf, bs[0]), 2i+1 = {bs[i]}, 2i+2 = (bs[i], bs[i+1]),
// 2·len(bs) = (bs[last], +inf). NaN lands in the last region.
func (ra *rsscAttr) region(x float64) int {
	i := sort.SearchFloat64s(ra.boundaries, x)
	if i < len(ra.boundaries) && ra.boundaries[i] == x {
		return 2*i + 1
	}
	return 2 * i
}

// regionInside reports whether every point of the region lies within the
// closed interval iv.
func regionInside(reg int, bs []float64, iv Interval) bool {
	if reg%2 == 1 {
		return iv.Contains(bs[reg/2])
	}
	half := reg / 2
	// Open region (lo, hi) with lo = bs[half-1] (or −inf) and hi = bs[half]
	// (or +inf). Because all interval endpoints are boundaries, the region
	// is inside iff both flanking boundaries exist and lie within [Lo,Hi].
	if half == 0 || half == len(bs) {
		return false
	}
	return bs[half-1] >= iv.Lo && bs[half] <= iv.Hi
}

// NumSignatures returns the number of indexed signatures.
func (r *RSSC) NumSignatures() int { return len(r.sigs) }

// Signatures returns the indexed signatures (shared storage).
func (r *RSSC) Signatures() []Signature { return r.sigs }

// Query ANDs the per-attribute masks for point x into dst (allocated when
// nil or of the wrong size) and returns it. Bit j set means x ∈
// SuppSet(sigs[j]). It does not allocate when dst has the right size.
func (r *RSSC) Query(dst []uint64, x []float64) []uint64 {
	if len(dst) != r.words {
		dst = make([]uint64, r.words)
	}
	copy(dst, r.full)
	var sel [queryChunk][]uint64
	for c := 0; c < len(r.attrs); c += queryChunk {
		chunk := r.attrs[c:min(c+queryChunk, len(r.attrs))]
		for k := range chunk {
			ra := &chunk[k]
			sel[k] = ra.masks[ra.region(x[ra.attr])]
		}
		masks := sel[:len(chunk)]
		var live uint64
		w := 0
		for ; w+8 <= len(dst); w += 8 {
			d := dst[w : w+8]
			v0, v1, v2, v3, v4, v5, v6, v7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
			if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
				continue
			}
			for _, m := range masks {
				m := m[w : w+8]
				v0 &= m[0]
				v1 &= m[1]
				v2 &= m[2]
				v3 &= m[3]
				v4 &= m[4]
				v5 &= m[5]
				v6 &= m[6]
				v7 &= m[7]
				if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
					break
				}
			}
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = v0, v1, v2, v3, v4, v5, v6, v7
			live |= v0 | v1 | v2 | v3 | v4 | v5 | v6 | v7
		}
		for ; w < len(dst); w++ {
			v := dst[w]
			for _, m := range masks {
				v &= m[w]
			}
			dst[w] = v
			live |= v
		}
		if live == 0 {
			break
		}
	}
	return dst
}

// AddTo increments counts[j] for every set bit j of mask — accumulating the
// per-signature supports a mapper maintains.
func AddTo(counts []int64, mask []uint64) {
	for w, word := range mask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			counts[w*64+b]++
			word &= word - 1
		}
	}
}

// Ones returns the indices of the set bits of mask, appended to dst.
func Ones(dst []int, mask []uint64) []int {
	for w, word := range mask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*64+b)
			word &= word - 1
		}
	}
	return dst
}

// PopCount returns the number of set bits in mask.
func PopCount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountSupportsNaive computes the supports of sigs over row-major data by
// direct containment checks — the "simple approach" the RSSC replaces. It
// has no pipeline caller; tests and benchmarks use it as the reference.
func CountSupportsNaive(sigs []Signature, rows []float64, dim int) []int64 {
	counts := make([]int64, len(sigs))
	n := len(rows) / dim
	for i := 0; i < n; i++ {
		x := rows[i*dim : (i+1)*dim]
		for j, s := range sigs {
			if s.Contains(x) {
				counts[j]++
			}
		}
	}
	return counts
}
