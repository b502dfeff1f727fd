package signature

import (
	"math/rand"
	"testing"
)

// benchSigs builds a candidate set shaped like a real proving batch.
func benchSigs(numSigs, dim int) []Signature {
	rng := rand.New(rand.NewSource(1))
	sigs := make([]Signature, 0, numSigs)
	for len(sigs) < numSigs {
		p := 1 + rng.Intn(3)
		var ivs []Interval
		used := map[int]bool{}
		for len(ivs) < p {
			a := rng.Intn(dim)
			if used[a] {
				continue
			}
			used[a] = true
			lo := float64(rng.Intn(8)) / 10
			ivs = append(ivs, Interval{Attr: a, Lo: lo, Hi: lo + 0.2})
		}
		sigs = append(sigs, New(ivs...))
	}
	return Dedup(sigs)
}

func BenchmarkRSSCBuild(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		sigs := benchSigs(n, 20)
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewRSSC(sigs)
			}
		})
	}
}

func BenchmarkRSSCQuery(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		sigs := benchSigs(n, 20)
		r := NewRSSC(sigs)
		rng := rand.New(rand.NewSource(2))
		x := make([]float64, 20)
		for i := range x {
			x[i] = rng.Float64()
		}
		var mask []uint64
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mask = r.Query(mask, x)
			}
		})
	}
	// Pipeline-shaped batches: bin-aligned relevant intervals and the
	// candidate levels they join into, queried by points that fall inside
	// the intervals about half the time.
	for _, c := range []struct {
		name             string
		dim, maxPerLevel int
	}{
		{"aligned/dim=20", 20, 5000}, // ≈7k candidates of levels 2–4
		{"aligned/dim=100", 100, 5000},
	} {
		sigs, level1 := alignedCandidates(c.dim, c.maxPerLevel)
		r := NewRSSC(sigs)
		rows := alignedPoints(level1, c.dim, 1024)
		b.Run(c.name, func(b *testing.B) {
			var mask []uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mask = r.Query(mask, rows[i%1024*c.dim:][:c.dim])
			}
		})
	}
}

// BenchmarkColumnCount streams the points of BenchmarkRSSCQuery's
// pipeline-shaped batches through a vertical support counter; one op is one
// point, flushes included, so ns/op compares with the RSSC query's.
func BenchmarkColumnCount(b *testing.B) {
	for _, c := range []struct {
		name             string
		dim, maxPerLevel int
	}{
		{"aligned/dim=20", 20, 5000},
		{"aligned/dim=100", 100, 5000},
	} {
		sigs, level1 := alignedCandidates(c.dim, c.maxPerLevel)
		cnt := NewColumnIndex(sigs).NewSupportCounter()
		rows := alignedPoints(level1, c.dim, 1024)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cnt.Add(rows[i%1024*c.dim:][:c.dim])
			}
			cnt.Counts()
		})
	}
}

// BenchmarkCoverageAdd feeds pipeline-shaped membership masks through the
// redundancy filter's coverage test.
func BenchmarkCoverageAdd(b *testing.B) {
	const dim = 20
	sigs, level1 := alignedCandidates(dim, 100)
	sigs = sigs[:250]
	r := NewRSSC(sigs)
	rows := alignedPoints(level1, dim, 1024)
	masks := make([][]uint64, 1024)
	for i := range masks {
		masks[i] = r.Query(nil, rows[i*dim:(i+1)*dim])
	}
	rng := rand.New(rand.NewSource(3))
	ratios := make([]float64, len(sigs))
	for i := range ratios {
		ratios[i] = rng.Float64()
	}
	acc := NewCoverageRelation(sigs, ratios).NewAccumulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(masks[i%1024])
	}
}

// alignedCandidates builds one relevant interval on bins of width 1/59 per
// attribute (two on every sixth) and joins them into candidate levels 2, 3
// and 4 of at most maxPerLevel signatures each.
func alignedCandidates(dim, maxPerLevel int) (sigs, level1 []Signature) {
	rng := rand.New(rand.NewSource(1))
	const bins = 59
	for a := 0; a < dim; a++ {
		lo := rng.Intn(bins - 16)
		hi := lo + 4 + rng.Intn(8)
		level1 = append(level1, New(iv(a, float64(lo)/bins, float64(hi)/bins)))
		if a%6 == 1 {
			level1 = append(level1, New(iv(a, float64(hi+2)/bins, float64(hi+8)/bins)))
		}
	}
	level := level1
	for p := 2; p <= 4 && len(level) > 1; p++ {
		k := int64(len(level))
		level = GenerateCandidates(level, 0, k*(k-1)/2)
		Sort(level)
		if len(level) > maxPerLevel {
			level = level[:maxPerLevel]
		}
		sigs = append(sigs, level...)
	}
	return sigs, level1
}

// alignedPoints draws n points; each coordinate falls inside a random
// relevant interval of its attribute with probability 1/2 and is uniform
// otherwise.
func alignedPoints(level1 []Signature, dim, n int) []float64 {
	rng := rand.New(rand.NewSource(2))
	byAttr := make([][]Interval, dim)
	for _, s := range level1 {
		byAttr[s.Intervals[0].Attr] = append(byAttr[s.Intervals[0].Attr], s.Intervals[0])
	}
	rows := make([]float64, n*dim)
	for i := range rows {
		ivs := byAttr[i%dim]
		if len(ivs) > 0 && rng.Intn(2) == 0 {
			iv := ivs[rng.Intn(len(ivs))]
			rows[i] = iv.Lo + rng.Float64()*iv.Width()
		} else {
			rows[i] = rng.Float64()
		}
	}
	return rows
}

func BenchmarkNaiveContainment(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		sigs := benchSigs(n, 20)
		rng := rand.New(rand.NewSource(2))
		x := make([]float64, 20)
		for i := range x {
			x[i] = rng.Float64()
		}
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range sigs {
					s.Contains(x)
				}
			}
		})
	}
}

func BenchmarkGenerateCandidates(b *testing.B) {
	level := benchSigs(500, 30)
	k := int64(len(level))
	total := k * (k - 1) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateCandidates(level, 0, total)
	}
}

func BenchmarkPairFromIndex(b *testing.B) {
	const k = 100000
	total := int64(k) * (k - 1) / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairFromIndex(int64(i)%total, k)
	}
}

func itoa(n int) string {
	switch n {
	case 100:
		return "sigs=100"
	case 1000:
		return "sigs=1000"
	default:
		return "sigs=5000"
	}
}
