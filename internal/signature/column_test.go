package signature

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// columnCounts streams rows (row-major, dim wide) through a fresh support
// counter of sigs.
func columnCounts(sigs []Signature, rows []float64, dim int) []int64 {
	c := NewColumnIndex(sigs).NewSupportCounter()
	for i := 0; i+dim <= len(rows); i += dim {
		c.Add(rows[i : i+dim])
	}
	return c.Counts()
}

// rowMajorUncovered is the row-major reference of the redundancy job: one
// membership mask per point, from Signature.Contains, fed to the coverage
// accumulator.
func rowMajorUncovered(sigs []Signature, ratios []float64, rows []float64, dim int) []int64 {
	acc := NewCoverageRelation(sigs, ratios).NewAccumulator()
	mask := make([]uint64, (len(sigs)+63)/64)
	for i := 0; i+dim <= len(rows); i += dim {
		clear(mask)
		for j, s := range sigs {
			if s.Contains(rows[i : i+dim]) {
				mask[j/64] |= 1 << (j % 64)
			}
		}
		acc.Add(mask)
	}
	return acc.Counts()
}

// TestColumnCountsTable checks the vertical supports against
// CountSupportsNaive on split sizes around the word and block sizes
// (including an empty split), a signature with no intervals, degenerate,
// reversed, NaN and infinite intervals, and −0, ±Inf and NaN coordinates.
func TestColumnCountsTable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	sigs := []Signature{
		{}, // no interval: every row
		New(iv(0, 0.25, 0.75)),
		New(iv(0, 0.25, 0.75), iv(1, 0, 0.5)),
		New(iv(1, 0.5, 0.5)), // Lo == Hi
		{Intervals: []Interval{iv(0, 0.75, 0.25)}}, // Lo > Hi: empty
		New(iv(2, nan, 1)),                         // NaN bound: empty
		New(iv(0, 0, 1), iv(2, 0, nan)),            // NaN bound: empty
		New(iv(2, -inf, inf)),                      // all but NaN
		New(iv(2, inf, inf)),                       // +Inf only
		New(iv(1, negZero, 0)),                     // ±0 only
		New(iv(1, 0, negZero)),                     // ±0 only, reversed signs
		New(iv(0, 0, 0.5), iv(1, 0, 0.5), iv(2, 0, 0.5)),
	}
	specials := []float64{0.25, 0.75, 0.5, 0, negZero, 1, inf, -inf, nan}
	rng := rand.New(rand.NewSource(5))
	const dim = 3
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 1100, 1537} {
		rows := make([]float64, n*dim)
		for i := range rows {
			if rng.Intn(4) == 0 {
				rows[i] = specials[rng.Intn(len(specials))]
			} else {
				rows[i] = rng.Float64()
			}
		}
		got := columnCounts(sigs, rows, dim)
		if want := CountSupportsNaive(sigs, rows, dim); !slices.Equal(got, want) {
			t.Fatalf("n=%d: column counts %v, naive %v", n, got, want)
		}
		if got[0] != int64(n) {
			t.Fatalf("n=%d: signature without intervals counts %d rows", n, got[0])
		}
		ratios := make([]float64, len(sigs))
		for i := range ratios {
			ratios[i] = float64(rng.Intn(4))
		}
		c := NewColumnIndex(sigs).NewUncoveredCounter(NewCoverageRelation(sigs, ratios))
		for i := 0; i < n; i++ {
			c.Add(rows[i*dim : (i+1)*dim])
		}
		if got, want := c.Counts(), rowMajorUncovered(sigs, ratios, rows, dim); !slices.Equal(got, want) {
			t.Fatalf("n=%d: column uncovered %v, row-major %v", n, got, want)
		}
	}
}

// TestColumnCountsRunningTotals reads the counts after each of several
// chunks of one task: Counts closes a partial block, and later rows start
// a new one.
func TestColumnCountsRunningTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dim = 4
	sigs := randomSignatures(rng, 70, dim, 3, func() float64 { return float64(rng.Intn(11)) / 10 })
	rows := make([]float64, 2000*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	c := NewColumnIndex(sigs).NewSupportCounter()
	done := 0
	for _, chunk := range []int{0, 5, 600, 1, 512, 882} {
		for i := done; i < done+chunk; i++ {
			c.Add(rows[i*dim : (i+1)*dim])
		}
		done += chunk
		if want := CountSupportsNaive(sigs, rows[:done*dim], dim); !slices.Equal(c.Counts(), want) {
			t.Fatalf("after %d rows: %v, naive %v", done, c.Counts(), want)
		}
	}
}

// TestColumnUncoveredMatchesRSSC checks the vertical uncovered counts
// against the row-major path they replace, RSSC.Query plus
// CoverageAccumulator.Add, on random signatures, ratios and rows, with
// signature counts across mask-word boundaries.
func TestColumnUncoveredMatchesRSSC(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 6
	for _, numSigs := range []int{1, 2, 63, 64, 65, 130, 250} {
		sigs := randomSignatures(rng, numSigs, dim, 4, func() float64 { return float64(rng.Intn(9)) / 8 })
		ratios := make([]float64, len(sigs))
		for i := range ratios {
			ratios[i] = float64(rng.Intn(8)) // ties are frequent
		}
		n := rng.Intn(3000)
		rows := make([]float64, n*dim)
		for i := range rows {
			rows[i] = rng.Float64()
		}
		rssc := NewRSSC(sigs)
		acc := NewCoverageRelation(sigs, ratios).NewAccumulator()
		c := NewColumnIndex(sigs).NewUncoveredCounter(NewCoverageRelation(sigs, ratios))
		var mask []uint64
		for i := 0; i < n; i++ {
			x := rows[i*dim : (i+1)*dim]
			mask = rssc.Query(mask, x)
			acc.Add(mask)
			c.Add(x)
		}
		if got, want := c.Counts(), acc.Counts(); !slices.Equal(got, want) {
			t.Fatalf("%d sigs, %d rows: column %v, RSSC %v", len(sigs), n, got, want)
		}
	}
}

// TestColumnIndexSharesIntervals pins the index's shape: one column per
// distinct interval, however many signatures use it.
func TestColumnIndexSharesIntervals(t *testing.T) {
	a, b, c := iv(0, 0, 0.5), iv(1, 0.25, 0.5), iv(2, 0, 1)
	ix := NewColumnIndex([]Signature{New(a), New(a, b), New(a, c), New(b, c), New(a, b, c), {}})
	if ix.NumSignatures() != 6 || len(ix.ivs) != 3 {
		t.Fatalf("%d signatures, %d intervals; want 6 and 3", ix.NumSignatures(), len(ix.ivs))
	}
}

// TestColumnIndexConcurrentCounters shares one index among goroutines, as
// the map tasks of a job do, each counting with its own counter; the race
// detector flags any write to the shared index.
func TestColumnIndexConcurrentCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const dim, n = 8, 2000
	sigs := randomSignatures(rng, 300, dim, 4, func() float64 { return float64(rng.Intn(60)) / 59 })
	ratios := make([]float64, len(sigs))
	for i := range ratios {
		ratios[i] = float64(rng.Intn(5))
	}
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	ix, rel := NewColumnIndex(sigs), NewCoverageRelation(sigs, ratios)
	wantSupp := CountSupportsNaive(sigs, rows, dim)
	wantUnc := rowMajorUncovered(sigs, ratios, rows, dim)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			supp, unc := ix.NewSupportCounter(), ix.NewUncoveredCounter(rel)
			for i := 0; i < n; i++ {
				supp.Add(rows[i*dim : (i+1)*dim])
				unc.Add(rows[i*dim : (i+1)*dim])
			}
			if !slices.Equal(supp.Counts(), wantSupp) || !slices.Equal(unc.Counts(), wantUnc) {
				t.Error("concurrent counts differ from the reference")
			}
		}()
	}
	wg.Wait()
}

// TestColumnCounterAllocs pins the fixed-size state: streaming rows and
// reading the counts allocate nothing.
func TestColumnCounterAllocs(t *testing.T) {
	sigs, level1 := alignedCandidates(20, 500)
	rows := alignedPoints(level1, 20, 1024)
	ratios := make([]float64, len(sigs))
	for i := range ratios {
		ratios[i] = float64(i % 7)
	}
	ix := NewColumnIndex(sigs)
	for _, c := range []*ColumnCounter{ix.NewSupportCounter(), ix.NewUncoveredCounter(NewCoverageRelation(sigs, ratios))} {
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < 700; i++ {
				c.Add(rows[i*20 : (i+1)*20])
			}
			c.Counts()
		})
		if allocs != 0 {
			t.Fatalf("%v allocations per run, want 0", allocs)
		}
	}
}

// FuzzColumnCounts checks the vertical support and uncovered counts against
// Signature.Contains on fuzzed signatures and rows: seed draws up to 80
// signatures over three attributes (some with reversed intervals) whose
// ends mix tenths with a, b and c, and up to 1,200 rows mixing the same
// values with uniform draws.
func FuzzColumnCounts(f *testing.F) {
	f.Add(int64(1), 0.5, 0.25, 0.75)
	f.Add(int64(2), 0.0, math.Copysign(0, -1), 1.0)
	f.Add(int64(3), math.Inf(1), math.Inf(-1), math.NaN())
	f.Add(int64(4), 0.1, 0.2, 0.30000000000000004)
	f.Add(int64(5), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, seed int64, a, b, c float64) {
		rng := rand.New(rand.NewSource(seed))
		vals := []float64{a, b, c}
		gen := func() float64 {
			if rng.Intn(3) == 0 {
				return vals[rng.Intn(3)]
			}
			return float64(rng.Intn(11)) / 10
		}
		sigs := randomSignatures(rng, 1+rng.Intn(80), 3, 3, gen)
		for k := rng.Intn(3); k > 0; k-- {
			sigs = append(sigs, Signature{Intervals: []Interval{iv(rng.Intn(3), gen(), gen())}})
		}
		if rng.Intn(4) == 0 {
			sigs = append(sigs, Signature{})
		}
		const dim = 3
		rows := make([]float64, rng.Intn(1200)*dim)
		for i := range rows {
			if rng.Intn(2) == 0 {
				rows[i] = gen()
			} else {
				rows[i] = rng.Float64()
			}
		}
		if got, want := columnCounts(sigs, rows, dim), CountSupportsNaive(sigs, rows, dim); !slices.Equal(got, want) {
			t.Fatalf("supports %v, naive %v", got, want)
		}
		ratios := make([]float64, len(sigs))
		for i := range ratios {
			ratios[i] = float64(rng.Intn(4))
		}
		cnt := NewColumnIndex(sigs).NewUncoveredCounter(NewCoverageRelation(sigs, ratios))
		for i := 0; i < len(rows); i += dim {
			cnt.Add(rows[i : i+dim])
		}
		if got, want := cnt.Counts(), rowMajorUncovered(sigs, ratios, rows, dim); !slices.Equal(got, want) {
			t.Fatalf("uncovered %v, row-major %v", got, want)
		}
	})
}
