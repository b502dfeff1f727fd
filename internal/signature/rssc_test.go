package signature

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// TestRSSCPaperExample reconstructs Figure 3 of the paper: four signatures
// on attribute a, where a is irrelevant for S2 (its bits stay 1 in every
// bin).
func TestRSSCPaperExample(t *testing.T) {
	s1 := New(iv(0, 0.1, 0.4), iv(1, 0, 1))
	s2 := New(iv(1, 0.2, 0.8)) // attribute 0 irrelevant
	s3 := New(iv(0, 0.3, 0.7), iv(1, 0, 1))
	s4 := New(iv(0, 0.6, 0.9), iv(1, 0, 1))
	r := NewRSSC([]Signature{s1, s2, s3, s4})

	cases := []struct {
		x    []float64
		want []int
	}{
		{[]float64{0.2, 0.5}, []int{0, 1}},     // in S1; S2 ignores a0
		{[]float64{0.35, 0.5}, []int{0, 1, 2}}, // S1∩S3
		{[]float64{0.65, 0.5}, []int{1, 2, 3}}, // S3∩S4
		{[]float64{0.95, 0.5}, []int{1}},       // only S2 (a0 irrelevant)
		{[]float64{0.95, 0.9}, nil},            // outside everything
		{[]float64{0.1, 0.5}, []int{0, 1}},     // closed lower bound of S1
		{[]float64{0.4, 0.5}, []int{0, 1, 2}},  // closed upper bound of S1
	}
	for _, c := range cases {
		mask := r.Query(nil, c.x)
		got := Ones(nil, mask)
		if len(got) != len(c.want) {
			t.Errorf("x=%v: got %v, want %v", c.x, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("x=%v: got %v, want %v", c.x, got, c.want)
				break
			}
		}
	}
}

// TestRSSCMatchesNaiveCounting is the core property test: RSSC support
// counting must agree exactly with direct containment checks, including
// points that land exactly on interval boundaries.
func TestRSSCMatchesNaiveCounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(4)
		numSigs := 1 + rng.Intn(40)
		sigs := make([]Signature, 0, numSigs)
		for s := 0; s < numSigs; s++ {
			var ivs []Interval
			used := map[int]bool{}
			p := 1 + rng.Intn(dim)
			for len(ivs) < p {
				a := rng.Intn(dim)
				if used[a] {
					continue
				}
				used[a] = true
				lo := float64(rng.Intn(8)) / 10
				hi := lo + float64(1+rng.Intn(3))/10
				ivs = append(ivs, iv(a, lo, hi))
			}
			sigs = append(sigs, New(ivs...))
		}
		sigs = Dedup(sigs)
		n := 200
		rows := make([]float64, n*dim)
		for i := range rows {
			if rng.Float64() < 0.3 {
				rows[i] = float64(rng.Intn(11)) / 10 // exact boundary values
			} else {
				rows[i] = rng.Float64()
			}
		}
		naive := CountSupportsNaive(sigs, rows, dim)
		r := NewRSSC(sigs)
		counts := make([]int64, len(sigs))
		var mask []uint64
		for i := 0; i < n; i++ {
			mask = r.Query(mask, rows[i*dim:(i+1)*dim])
			AddTo(counts, mask)
		}
		for j := range counts {
			if counts[j] != naive[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomSignatures draws numSigs distinct signatures of 1..maxP intervals
// over dim attributes. Interval ends come from gen; about one interval in
// eight is degenerate (Lo == Hi).
func randomSignatures(rng *rand.Rand, numSigs, dim, maxP int, gen func() float64) []Signature {
	var sigs []Signature
	seen := map[string]bool{}
	for tries := 0; len(sigs) < numSigs && tries < 4*numSigs; tries++ {
		p := 1 + rng.Intn(min(maxP, dim))
		used := map[int]bool{}
		var ivs []Interval
		for len(ivs) < p {
			a := rng.Intn(dim)
			if used[a] {
				continue
			}
			used[a] = true
			lo, hi := gen(), gen()
			if lo > hi {
				lo, hi = hi, lo
			}
			if rng.Intn(8) == 0 {
				hi = lo
			}
			ivs = append(ivs, iv(a, lo, hi))
		}
		if s := New(ivs...); !seen[s.Key()] {
			seen[s.Key()] = true
			sigs = append(sigs, s)
		}
	}
	return sigs
}

// checkQuery compares r.Query(x) bit by bit with Signature.Contains.
func checkQuery(t *testing.T, r *RSSC, sigs []Signature, x []float64) {
	t.Helper()
	mask := r.Query(nil, x)
	for j, s := range sigs {
		got := mask[j/64]&(1<<(j%64)) != 0
		if want := s.Contains(x); got != want {
			t.Fatalf("x=%v sig %d %v: rssc %v, Contains %v", x, j, s, got, want)
		}
	}
	if tail := len(sigs) % 64; tail != 0 && mask[len(mask)-1]>>tail != 0 {
		t.Fatalf("x=%v: bits set past the last signature", x)
	}
}

// TestRSSCMatchesContainsWide is the oracle at pipeline widths: up to 100
// attributes (more than one gather chunk), up to 1100 signatures (whole
// eight-word blocks plus a tail),
// degenerate intervals, bin-aligned, 0.1-grid and random float boundaries,
// and points below, above and exactly on boundaries, at ±Inf, NaN and −0.
func TestRSSCMatchesContainsWide(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := []func() float64{
		func() float64 { return float64(rng.Intn(60)) / 59 },  // bin edges
		func() float64 { return float64(rng.Intn(11)) * 0.1 }, // inexact tenths
		func() float64 { return rng.Float64()*2 - 0.5 },
	}
	for _, gen := range gens {
		for _, dim := range []int{1, 3, 20, 33, 64, 100} {
			for _, numSigs := range []int{5, 70, 600, 1100} {
				sigs := randomSignatures(rng, numSigs, dim, 4, gen)
				r := NewRSSC(sigs)
				var ends []float64
				for _, s := range sigs {
					for _, iv := range s.Intervals {
						ends = append(ends, iv.Lo, iv.Hi)
					}
				}
				specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), -1, 2}
				x := make([]float64, dim)
				for p := 0; p < 200; p++ {
					for a := range x {
						switch u := rng.Intn(10); {
						case u < 4:
							x[a] = ends[rng.Intn(len(ends))]
						case u < 5:
							e := ends[rng.Intn(len(ends))]
							x[a] = math.Nextafter(e, math.Inf(2*rng.Intn(2)-1))
						case u < 6:
							x[a] = specials[rng.Intn(len(specials))]
						default:
							x[a] = gen()
						}
					}
					checkQuery(t, r, sigs, x)
				}
			}
		}
	}
}

// TestRSSCQueryBlockEdges builds signatures whose mask word selects the
// first attribute they constrain: signature j constrains attribute j/64 and
// one of the attributes 18..39, each to [0, 0.5]. A point above 0.5 on
// attribute w empties word w after that attribute, so points drawn mostly
// above 0.5 empty all but a few words of an eight-word block partway
// through it, and in the second gather chunk (attributes 32..39), while
// later attributes still clear bits of the surviving words.
func TestRSSCQueryBlockEdges(t *testing.T) {
	const words, dim = 18, 40
	var sigs []Signature
	for j := 0; j < words*64-5; j++ {
		sigs = append(sigs, New(iv(j/64, 0, 0.5), iv(18+j%22, 0, 0.5)))
	}
	r := NewRSSC(sigs)
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, dim)
	for p := 0; p < 300; p++ {
		for a := range x {
			x[a] = 0.25
			if rng.Intn(5) != 0 {
				x[a] = 0.75
			}
		}
		checkQuery(t, r, sigs, x)
	}
}

// TestRSSCQueryAllocs pins that Query allocates nothing once dst has the
// right size, also past the first gather chunk.
func TestRSSCQueryAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 100
	sigs := randomSignatures(rng, 500, dim, 3, func() float64 { return float64(rng.Intn(60)) / 59 })
	r := NewRSSC(sigs)
	if len(r.attrs) <= queryChunk {
		t.Fatalf("only %d constrained attributes; want more than %d", len(r.attrs), queryChunk)
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.Float64()
	}
	mask := r.Query(nil, x)
	if n := testing.AllocsPerRun(100, func() { mask = r.Query(mask, x) }); n != 0 {
		t.Fatalf("Query allocates %v times per call", n)
	}
}

// TestRSSCConcurrentQuery shares one RSSC among goroutines, as the map tasks
// of a job do; every result must equal the sequential one, and the race
// detector flags any write to the shared counter.
func TestRSSCConcurrentQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim, n = 40, 300
	sigs := randomSignatures(rng, 400, dim, 4, func() float64 { return float64(rng.Intn(60)) / 59 })
	r := NewRSSC(sigs)
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	want := make([][]uint64, n)
	for i := range want {
		want[i] = r.Query(nil, rows[i*dim:(i+1)*dim])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mask []uint64
			for i := 0; i < n; i++ {
				mask = r.Query(mask, rows[i*dim:(i+1)*dim])
				if !slices.Equal(mask, want[i]) {
					errs <- fmt.Sprintf("point %d: concurrent mask differs", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// FuzzRSSCQuery checks Query against Signature.Contains on fuzzed
// signature sets and points: seed draws up to 80 signatures over three
// attributes whose ends mix bin-aligned values with a, b and c, and each of
// a, b and c is also queried as a coordinate.
func FuzzRSSCQuery(f *testing.F) {
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
		r := NewRSSC(sigs)
		for _, x := range [][]float64{{a, b, c}, {c, a, b}, {b, c, a}, {a, a, a}} {
			checkQuery(t, r, sigs, x)
		}
	})
}

func TestRSSCEmpty(t *testing.T) {
	r := NewRSSC(nil)
	mask := r.Query(nil, []float64{0.5})
	if PopCount(mask) != 0 {
		t.Fatal("empty RSSC must return empty mask")
	}
}

func TestRSSCManySignaturesCrossWordBoundary(t *testing.T) {
	// More than 64 signatures exercises multi-word masks.
	var sigs []Signature
	for i := 0; i < 130; i++ {
		lo := float64(i%10) / 10
		sigs = append(sigs, New(iv(i%3, lo, lo+0.1), iv(3+(i%2), 0, 0.5)))
	}
	sigs = Dedup(sigs)
	rng := rand.New(rand.NewSource(2))
	const dim = 5
	rows := make([]float64, 500*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	naive := CountSupportsNaive(sigs, rows, dim)
	r := NewRSSC(sigs)
	counts := make([]int64, len(sigs))
	var mask []uint64
	for i := 0; i < 500; i++ {
		mask = r.Query(mask, rows[i*dim:(i+1)*dim])
		AddTo(counts, mask)
	}
	for j := range counts {
		if counts[j] != naive[j] {
			t.Fatalf("sig %d: rssc %d != naive %d", j, counts[j], naive[j])
		}
	}
}

func TestOnesAndPopCount(t *testing.T) {
	mask := []uint64{0b1011, 1 << 63}
	ones := Ones(nil, mask)
	want := []int{0, 1, 3, 127}
	if len(ones) != len(want) {
		t.Fatalf("ones = %v", ones)
	}
	for i := range want {
		if ones[i] != want[i] {
			t.Fatalf("ones = %v, want %v", ones, want)
		}
	}
	if PopCount(mask) != 4 {
		t.Fatalf("popcount = %d", PopCount(mask))
	}
	counts := make([]int64, 128)
	AddTo(counts, mask)
	if counts[0] != 1 || counts[127] != 1 || counts[2] != 0 {
		t.Fatal("AddTo wrong")
	}
}
