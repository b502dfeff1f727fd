package signature

import (
	"math"
	"math/bits"
	"sort"
)

// InterestRatio returns Supp(S)/Suppexp(S) (Eq. 6): how many times more
// support the signature has than a uniform distribution would give it. It
// returns +Inf for zero expected support with positive observed support.
func InterestRatio(supp float64, s Signature, n int) float64 {
	exp := s.ExpectedSupport(n)
	if exp <= 0 {
		if supp > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return supp / exp
}

// RedundancyInput bundles a signature with its measured support and
// interest ratio for the filter.
type RedundancyInput struct {
	Sig     Signature
	Support int64
	Ratio   float64
}

// Uncovered holds, per signature, how many of its support-set points are not
// contained in any strictly more interesting signature's support set. The
// core package fills it with one data pass (a ColumnCounter per map task);
// this package only decides redundancy from the counts.
type Uncovered struct {
	// Count[j] is the number of points in SuppSet(sigs[j]) that no
	// signature with a strictly higher interest ratio covers.
	Count []int64
}

// DecideRedundant applies Eq. 5 with a coverage tolerance: signature j is
// redundant when at most (1−coverage)·Supp(j) of its support points are
// uncovered by strictly more interesting signatures. coverage = 1 demands
// exact set containment (the paper's noise-free example); the pipeline
// default of 0.95 tolerates the uniform background noise that real data
// sets add to every support set.
func DecideRedundant(in []RedundancyInput, unc Uncovered, coverage float64) []bool {
	red := make([]bool, len(in))
	for j := range in {
		if in[j].Support == 0 {
			red[j] = true
			continue
		}
		allowed := (1 - coverage) * float64(in[j].Support)
		red[j] = float64(unc.Count[j]) <= allowed
	}
	return red
}

// CoverageRelation records, per signature j, which signatures may cover
// j's support points in the redundancy filter: those with a strictly higher
// interest ratio that are not a lattice superset of j. Two refinements over
// a naive reading of Eq. 5 make the filter robust on real (noisy,
// overlapping) data:
//
//   - A lattice superset Si ⊃ S never covers S. Overlapping clusters spawn
//     "slab" artifacts — a low-dimensional true core extended by another
//     cluster's dense attributes — whose interest ratio exceeds the true
//     core's. Counting them as cover would cascade the redundancy filter
//     down the lattice and delete the true core; excluding supersets is
//     safe because genuine subset pruning is the maximality filter's job.
//   - Coverage is fractional (see DecideRedundant): uniform noise inside an
//     artifact's box breaks exact set containment on any realistic data.
//
// The relation is a bit matrix of n²/8 bytes, built once and never written
// after, so every map task of a job shares one. It is the one coverage
// rule: the pipeline's vertical counter (ColumnIndex.NewUncoveredCounter)
// and the row-major CoverageAccumulator both read it.
type CoverageRelation struct {
	n, words int
	// coverers is row-major: row j, coverers[j*words:(j+1)*words], has
	// bit i set when signature i may cover signature j.
	coverers []uint64
}

// NewCoverageRelation computes the coverage relation for the given
// signatures and their interest ratios.
func NewCoverageRelation(sigs []Signature, ratios []float64) *CoverageRelation {
	n := len(sigs)
	rel := &CoverageRelation{n: n, words: (n + 63) / 64}
	rel.coverers = make([]uint64, n*rel.words)
	for j := 0; j < n; j++ {
		row := rel.coverers[j*rel.words : (j+1)*rel.words]
		for i := 0; i < n; i++ {
			if i == j || ratios[i] <= ratios[j] {
				continue
			}
			if sigs[j].SubsetOf(sigs[i]) {
				continue // lattice superset: not a coverer
			}
			row[i/64] |= 1 << (i % 64)
		}
	}
	return rel
}

// NewAccumulator returns an accumulator with zero counts over the relation.
func (rel *CoverageRelation) NewAccumulator() *CoverageAccumulator {
	return &CoverageAccumulator{rel: rel, unc: make([]int64, rel.n)}
}

// CoverageAccumulator counts, per signature, the support points not covered
// by any of its coverers (see CoverageRelation), one point's membership
// mask at a time. It is the row-major form of the uncovered count, the
// reference the vertical counter is tested against.
type CoverageAccumulator struct {
	rel *CoverageRelation
	unc []int64
}

// Add processes one point's membership mask: every member signature with no
// coverer among the members gets an uncovered increment.
func (a *CoverageAccumulator) Add(mask []uint64) {
	words := a.rel.words
	for w, word := range mask {
		for word != 0 {
			j := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			row := a.rel.coverers[j*words : (j+1)*words]
			covered := false
			for v, m := range mask {
				if row[v]&m != 0 {
					covered = true
					break
				}
			}
			if !covered {
				a.unc[j]++
			}
		}
	}
}

// Counts returns the accumulated uncovered counts (shared storage).
func (a *CoverageAccumulator) Counts() []int64 { return a.unc }

// SortByRatioDesc orders inputs by decreasing interest ratio (ties broken by
// canonical signature order), the presentation order used in results.
func SortByRatioDesc(in []RedundancyInput) {
	sort.Slice(in, func(i, j int) bool {
		if in[i].Ratio != in[j].Ratio {
			return in[i].Ratio > in[j].Ratio
		}
		return Less(in[i].Sig, in[j].Sig)
	})
}
