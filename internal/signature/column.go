package signature

import (
	"math"
	"math/bits"
)

// ColumnIndex is the read-only index of vertical support counting, the
// per-job alternative to the RSSC for jobs that need counts rather than
// per-point memberships. A batch of candidates is built from few distinct
// intervals (tens), while it holds thousands of signatures, so a map task
// keeps one bit column per distinct interval over a block of rows and
// counts a signature's support in that block as the popcount of the AND of
// its intervals' columns: the tid-list scheme of vertical frequent-itemset
// mining (Zaki's Eclat; MAFIA's bitmaps).
//
// A ColumnIndex is never written after NewColumnIndex, so every map task of
// a job shares one; each task counts with its own ColumnCounter.
type ColumnIndex struct {
	// ivs are the distinct intervals of all signatures, in first-use order.
	ivs []colInterval
	// Signature j uses the intervals sigIvs[sigOff[j]:sigOff[j+1]].
	sigOff []int32
	sigIvs []int32
}

// colInterval is one distinct interval with the order keys of its
// containment test: x ∈ [Lo, Hi] ⇔ orderKey(x) − lo ≤ span as unsigned
// integers. The subtraction wraps below lo, and NaN coordinates have keys
// outside [orderKey(−Inf), orderKey(+Inf)], so one compare decides.
type colInterval struct {
	attr     int
	lo, span uint64
}

// noKey is the order key of −0 before orderKey folds it onto +0, so no
// coordinate has it: an interval with lo = noKey and span 0 contains
// nothing.
const noKey = 1<<63 - 1

// orderKey maps x (not NaN) to a key whose unsigned order is the float
// order; −0 and +0 share one key.
func orderKey(x float64) uint64 {
	u := math.Float64bits(x + 0) // x + 0 turns −0 into +0
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// NewColumnIndex indexes the given signatures.
func NewColumnIndex(sigs []Signature) *ColumnIndex {
	ix := &ColumnIndex{sigOff: make([]int32, 1, len(sigs)+1)}
	pos := make(map[Interval]int32)
	for _, s := range sigs {
		for _, iv := range s.Intervals {
			i, ok := pos[iv]
			if !ok {
				// A NaN bound makes iv != iv, so such an interval never
				// hits the map; it is re-added per use and matches nothing.
				i = int32(len(ix.ivs))
				pos[iv] = i
				ix.ivs = append(ix.ivs, newColInterval(iv))
			}
			ix.sigIvs = append(ix.sigIvs, i)
		}
		ix.sigOff = append(ix.sigOff, int32(len(ix.sigIvs)))
	}
	return ix
}

// newColInterval derives the containment keys of iv. An interval with a
// NaN bound or with Lo > Hi contains nothing, as under Interval.Contains.
func newColInterval(iv Interval) colInterval {
	if !(iv.Lo <= iv.Hi) {
		return colInterval{attr: iv.Attr, lo: noKey}
	}
	lo := orderKey(iv.Lo)
	return colInterval{attr: iv.Attr, lo: lo, span: orderKey(iv.Hi) - lo}
}

// NumSignatures returns the number of indexed signatures.
func (ix *ColumnIndex) NumSignatures() int { return len(ix.sigOff) - 1 }

// blockWords is how many 64-row words of every column a ColumnCounter fills
// before it counts the block; blockRows is the block's row count.
const (
	blockWords = 8
	blockRows  = 64 * blockWords
)

// ColumnCounter streams one map task's rows into per-interval bit columns
// and, every blockRows rows and on Counts, adds each signature's count over
// the block. Its state is fixed-size: nothing is allocated after it is
// made.
type ColumnCounter struct {
	ix *ColumnIndex
	// cols holds interval i's column in cols[i*blockWords:][:blockWords];
	// bit r of the block is set when row r lies in the interval. Add fills
	// word[i], interval i's word of the current 64 rows, and stores it into
	// cols when the word is full: one contiguous row of words is much
	// cheaper to update per point than words a column apart.
	cols []uint64
	word []uint64
	rows int // rows in the current block
	// counts[j] is signature j's support so far, or with rel set, the
	// number of its support points that none of its coverers contains.
	counts []int64
	rel    *CoverageRelation
	// sigCols holds signature j's column of the block (the AND of its
	// intervals' columns) in sigCols[j*blockWords:]; uncovered counting
	// only.
	sigCols []uint64
}

// NewSupportCounter returns a counter of the signatures' supports.
func (ix *ColumnIndex) NewSupportCounter() *ColumnCounter {
	return &ColumnCounter{
		ix:     ix,
		cols:   make([]uint64, len(ix.ivs)*blockWords),
		word:   make([]uint64, len(ix.ivs)),
		counts: make([]int64, ix.NumSignatures()),
	}
}

// NewUncoveredCounter returns a counter of the signatures' uncovered points
// under rel, which must relate the same signatures: its counts equal those
// of rel.NewAccumulator fed every row's membership mask.
func (ix *ColumnIndex) NewUncoveredCounter(rel *CoverageRelation) *ColumnCounter {
	if rel.n != ix.NumSignatures() {
		panic("signature: coverage relation and column index differ in size")
	}
	c := ix.NewSupportCounter()
	c.rel = rel
	c.sigCols = make([]uint64, rel.n*blockWords)
	return c
}

// Add streams one point (full-dimensional) into the current block. It
// sets the point's bit in the column of every interval that contains it,
// without data-dependent branches.
func (c *ColumnCounter) Add(x []float64) {
	bit := uint64(1) << (c.rows % 64)
	word := c.word[:len(c.ix.ivs)]
	for i, iv := range c.ix.ivs {
		_, outside := bits.Sub64(iv.span, orderKey(x[iv.attr])-iv.lo, 0)
		word[i] |= bit &^ -outside
	}
	c.rows++
	if c.rows%64 == 0 {
		c.storeWord()
		if c.rows == blockRows {
			c.flush()
		}
	}
}

// storeWord moves the current words into the columns, at the word of the
// last row added.
func (c *ColumnCounter) storeWord() {
	w := (c.rows - 1) / 64
	for i, v := range c.word {
		c.cols[i*blockWords+w] = v
	}
	clear(c.word)
}

// Counts adds the current block and returns the counts so far, per
// signature (shared storage).
func (c *ColumnCounter) Counts() []int64 {
	c.flush()
	return c.counts
}

// flush adds every signature's count over the current block and clears it.
// Rows past c.rows have no bits in any column, so only a signature without
// intervals, whose column is every row of the block, needs the row count.
func (c *ColumnCounter) flush() {
	if c.rows == 0 {
		return
	}
	if c.rows%64 != 0 {
		c.storeWord()
	}
	var all [blockWords]uint64
	for w := range all {
		all[w] = ^uint64(0) >> (64 - min(max(c.rows-64*w, 0), 64)) // a shift by 64 gives 0
	}
	ix := c.ix
	for j := 0; j+1 < len(ix.sigOff); j++ {
		ivs := ix.sigIvs[ix.sigOff[j]:ix.sigOff[j+1]]
		s := all[:]
		if len(ivs) > 0 {
			s = c.cols[int(ivs[0])*blockWords:][:blockWords]
			ivs = ivs[1:]
		}
		v0, v1, v2, v3, v4, v5, v6, v7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		for _, i := range ivs {
			t := c.cols[int(i)*blockWords:][:blockWords]
			v0 &= t[0]
			v1 &= t[1]
			v2 &= t[2]
			v3 &= t[3]
			v4 &= t[4]
			v5 &= t[5]
			v6 &= t[6]
			v7 &= t[7]
		}
		if c.rel == nil {
			c.counts[j] += ones8(v0, v1, v2, v3, v4, v5, v6, v7)
			continue
		}
		d := c.sigCols[j*blockWords:][:blockWords]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = v0, v1, v2, v3, v4, v5, v6, v7
	}
	if c.rel != nil {
		c.flushUncovered()
	}
	clear(c.cols)
	c.rows = 0
}

// flushUncovered adds, per signature j, popcount(S_j &^ OR of S_i over j's
// coverers i), where S is a signature's column of the block: the rows of
// j's support set that no coverer's support set contains. It stops ORing
// once nothing of S_j is left.
func (c *ColumnCounter) flushUncovered() {
	rel := c.rel
	for j := 0; j < rel.n; j++ {
		s := c.sigCols[j*blockWords:][:blockWords]
		v0, v1, v2, v3, v4, v5, v6, v7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
			continue
		}
	cover:
		for w, word := range rel.coverers[j*rel.words : (j+1)*rel.words] {
			for word != 0 {
				i := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				t := c.sigCols[i*blockWords:][:blockWords]
				v0 &^= t[0]
				v1 &^= t[1]
				v2 &^= t[2]
				v3 &^= t[3]
				v4 &^= t[4]
				v5 &^= t[5]
				v6 &^= t[6]
				v7 &^= t[7]
				if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
					break cover
				}
			}
		}
		c.counts[j] += ones8(v0, v1, v2, v3, v4, v5, v6, v7)
	}
}

// ones8 returns the number of set bits in eight words.
func ones8(v0, v1, v2, v3, v4, v5, v6, v7 uint64) int64 {
	return int64(bits.OnesCount64(v0) + bits.OnesCount64(v1) + bits.OnesCount64(v2) +
		bits.OnesCount64(v3) + bits.OnesCount64(v4) + bits.OnesCount64(v5) +
		bits.OnesCount64(v6) + bits.OnesCount64(v7))
}
