package signature

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func iv(attr int, lo, hi float64) Interval { return Interval{Attr: attr, Lo: lo, Hi: hi} }

func TestIntervalBasics(t *testing.T) {
	i := iv(3, 0.2, 0.5)
	if i.Width() != 0.3 {
		t.Errorf("width = %g", i.Width())
	}
	if !i.Contains(0.2) || !i.Contains(0.5) || !i.Contains(0.35) {
		t.Error("closed interval must contain its bounds")
	}
	if i.Contains(0.19) || i.Contains(0.51) {
		t.Error("contains out-of-range value")
	}
	if !i.Overlaps(iv(3, 0.5, 0.9)) {
		t.Error("touching intervals overlap")
	}
	if i.Overlaps(iv(3, 0.6, 0.9)) || i.Overlaps(iv(4, 0.2, 0.5)) {
		t.Error("spurious overlap")
	}
}

func TestNewSortsByAttr(t *testing.T) {
	s := New(iv(5, 0, 1), iv(1, 0.2, 0.4), iv(3, 0.5, 0.6))
	attrs := s.Attrs()
	if attrs[0] != 1 || attrs[1] != 3 || attrs[2] != 5 {
		t.Fatalf("attrs = %v", attrs)
	}
	if s.P() != 3 {
		t.Fatalf("p = %d", s.P())
	}
}

func TestNewPanicsOnDuplicateAttr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(iv(1, 0, 0.5), iv(1, 0.5, 1))
}

func TestIntervalOn(t *testing.T) {
	s := New(iv(2, 0.1, 0.2), iv(7, 0.3, 0.4))
	if got, ok := s.IntervalOn(7); !ok || got.Lo != 0.3 {
		t.Error("IntervalOn(7) wrong")
	}
	if _, ok := s.IntervalOn(3); ok {
		t.Error("IntervalOn(3) must be absent")
	}
}

func TestContainsPoint(t *testing.T) {
	s := New(iv(0, 0.2, 0.4), iv(2, 0.6, 0.8))
	if !s.Contains([]float64{0.3, 0.99, 0.7}) {
		t.Error("point inside both intervals rejected")
	}
	if s.Contains([]float64{0.5, 0.99, 0.7}) {
		t.Error("point outside first interval accepted")
	}
	if s.Contains([]float64{0.3, 0.99, 0.5}) {
		t.Error("point outside second interval accepted")
	}
}

func TestVolumeAndExpectedSupport(t *testing.T) {
	s := New(iv(0, 0, 0.1), iv(1, 0.4, 0.6))
	if got := s.Volume(); !almost(got, 0.02) {
		t.Errorf("volume = %g", got)
	}
	// Eq. 7: n·∏width.
	if got := s.ExpectedSupport(100); !almost(got, 2) {
		t.Errorf("expected support = %g", got)
	}
	// Eq. 2: Supp(S)·width(I).
	if got := ExpectedSupportGiven(50, iv(5, 0, 0.1)); !almost(got, 5) {
		t.Errorf("conditional expected support = %g", got)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestWithWithout(t *testing.T) {
	s := New(iv(1, 0, 0.5))
	s2 := s.With(iv(0, 0.2, 0.3))
	if s2.P() != 2 || s2.Intervals[0].Attr != 0 {
		t.Fatal("With failed")
	}
	if s.P() != 1 {
		t.Fatal("With mutated receiver")
	}
	s3 := s2.Without(0)
	if !s3.Equal(s) {
		t.Fatal("Without(0) != original")
	}
}

func TestSubsetOfAndEqual(t *testing.T) {
	a := New(iv(1, 0, 0.5), iv(2, 0.5, 1))
	b := New(iv(1, 0, 0.5), iv(2, 0.5, 1), iv(3, 0, 0.1))
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("subset relation wrong")
	}
	if !a.SubsetOf(a) || !a.Equal(a) {
		t.Error("reflexivity broken")
	}
	// Same attribute, different interval → not a subset.
	c := New(iv(1, 0, 0.4), iv(2, 0.5, 1))
	if c.SubsetOf(b) {
		t.Error("different interval treated as subset")
	}
}

// TestKeyMatchesFprintf pins Key to the fmt form it replaced,
// "%d:%.17g:%.17g" per interval joined by ';', on random bit patterns and
// on ±0, subnormals, ±Inf, NaN and negative attributes.
func TestKeyMatchesFprintf(t *testing.T) {
	fmtKey := func(s Signature) string {
		var b strings.Builder
		for i, iv := range s.Intervals {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%d:%.17g:%.17g", iv.Attr, iv.Lo, iv.Hi)
		}
		return b.String()
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1.0 / 3, 1e21, 1e-7, 123456789012345678,
	}
	check := func(s Signature) {
		t.Helper()
		if got, want := s.Key(), fmtKey(s); got != want {
			t.Fatalf("Key() = %q, fmt form %q", got, want)
		}
	}
	check(Signature{})
	for i, lo := range specials {
		for _, hi := range specials {
			check(Signature{Intervals: []Interval{{Attr: i - 3, Lo: lo, Hi: hi}}})
		}
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 20000; k++ {
		ivs := make([]Interval, 1+rng.Intn(6))
		for i := range ivs {
			ivs[i] = Interval{
				Attr: int(rng.Int63()) >> rng.Intn(63),
				Lo:   math.Float64frombits(rng.Uint64()),
				Hi:   math.Float64frombits(rng.Uint64()),
			}
		}
		check(Signature{Intervals: ivs})
	}
}

// TestKeyWithoutMatchesWithout checks the key surgery against keying the
// sub-signature, for every position, on random bit patterns (negative
// attributes, ±Inf, NaN) and on one-interval signatures.
func TestKeyWithoutMatchesWithout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 5000; k++ {
		ivs := make([]Interval, 1+rng.Intn(6))
		for i := range ivs {
			ivs[i] = Interval{
				Attr: int(rng.Int63()) >> rng.Intn(63),
				Lo:   math.Float64frombits(rng.Uint64()),
				Hi:   math.Float64frombits(rng.Uint64()),
			}
		}
		s := Signature{Intervals: ivs}
		for idx := range ivs {
			if got, want := KeyWithout(s.Key(), idx), s.Without(idx).Key(); got != want {
				t.Fatalf("KeyWithout(%q, %d) = %q, want %q", s.Key(), idx, got, want)
			}
		}
	}
}

// TestGenerateKeyedCandidatesKeys checks that the keyed generator returns
// the plain generator's candidates, each with its own Key.
func TestGenerateKeyedCandidatesKeys(t *testing.T) {
	level := benchSigs(60, 8)
	Sort(level)
	k := int64(len(level))
	for _, r := range [][2]int64{{0, k * (k - 1) / 2}, {5, 400}, {7, 7}} {
		cands, keys := GenerateKeyedCandidates(level, r[0], r[1])
		plain := GenerateCandidates(level, r[0], r[1])
		if len(cands) != len(plain) || len(keys) != len(cands) {
			t.Fatalf("range %v: %d keyed, %d keys, %d plain", r, len(cands), len(keys), len(plain))
		}
		for i, c := range cands {
			if !c.Equal(plain[i]) || keys[i] != c.Key() {
				t.Fatalf("range %v: candidate %d is %v with key %q", r, i, c, keys[i])
			}
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	a := New(iv(1, 0, 0.5))
	b := New(iv(1, 0, 0.500001))
	c := New(iv(2, 0, 0.5))
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Error("distinct signatures share a key")
	}
	if a.Key() != New(iv(1, 0, 0.5)).Key() {
		t.Error("equal signatures have different keys")
	}
}

func TestJoin(t *testing.T) {
	// Classic a-priori join: share the first p−1 intervals.
	ab := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3))
	ac := New(iv(0, 0, 0.1), iv(2, 0.4, 0.5))
	joined, ok := Join(ab, ac)
	if !ok {
		t.Fatal("join failed")
	}
	if joined.P() != 3 {
		t.Fatalf("joined p = %d", joined.P())
	}
	want := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3), iv(2, 0.4, 0.5))
	if !joined.Equal(want) {
		t.Fatalf("joined = %v", joined)
	}
	// Same last attribute → no join.
	ab2 := New(iv(0, 0, 0.1), iv(1, 0.5, 0.6))
	if _, ok := Join(ab, ab2); ok {
		t.Error("join with same last attribute must fail")
	}
	// Different prefixes → no join.
	other := New(iv(0, 0, 0.2), iv(2, 0.4, 0.5))
	if _, ok := Join(ab, other); ok {
		t.Error("join with different prefix must fail")
	}
	// 1-signatures join whenever attributes differ.
	x := New(iv(3, 0, 0.1))
	y := New(iv(5, 0.2, 0.3))
	if _, ok := Join(x, y); !ok {
		t.Error("1-signature join failed")
	}
}

func TestPairFromIndexCoversAllPairs(t *testing.T) {
	const k = 9
	seen := make(map[[2]int]bool)
	total := int64(k * (k - 1) / 2)
	for idx := int64(0); idx < total; idx++ {
		i, j := PairFromIndex(idx, k)
		if i >= j || j >= k || i < 0 {
			t.Fatalf("bad pair (%d,%d) at %d", i, j, idx)
		}
		seen[[2]int{i, j}] = true
	}
	if int64(len(seen)) != total {
		t.Fatalf("covered %d pairs, want %d", len(seen), total)
	}
}

func TestGenerateCandidatesMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var level []Signature
	for a := 0; a < 5; a++ {
		for r := 0; r < 2; r++ {
			lo := rng.Float64() * 0.8
			level = append(level, New(iv(a, lo, lo+0.1)))
		}
	}
	Sort(level)
	k := int64(len(level))
	all := GenerateCandidates(level, 0, k*(k-1)/2)
	// Exhaustive: every pair of distinct attributes contributes one
	// candidate per interval combination: C(5,2)·2·2 = 40.
	if len(all) != 40 {
		t.Fatalf("got %d candidates, want 40", len(all))
	}
	// Sharding the index space yields the same set.
	var sharded []Signature
	for lo := int64(0); lo < k*(k-1)/2; lo += 7 {
		sharded = append(sharded, GenerateCandidates(level, lo, lo+7)...)
	}
	sharded = Dedup(sharded)
	if len(sharded) != len(all) {
		t.Fatalf("sharded %d != full %d", len(sharded), len(all))
	}
}

func TestDedup(t *testing.T) {
	a := New(iv(1, 0, 0.5))
	b := New(iv(2, 0, 0.5))
	got := Dedup([]Signature{a, b, a, b, a})
	if len(got) != 2 {
		t.Fatalf("dedup kept %d", len(got))
	}
}

func TestFilterMaximal(t *testing.T) {
	s1 := New(iv(0, 0, 0.1))
	s12 := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3))
	s123 := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3), iv(2, 0.4, 0.5))
	s4 := New(iv(4, 0, 0.5))
	got := FilterMaximal([]Signature{s1, s12, s123, s4})
	if len(got) != 2 {
		t.Fatalf("maximal count = %d", len(got))
	}
	keys := map[string]bool{got[0].Key(): true, got[1].Key(): true}
	if !keys[s123.Key()] || !keys[s4.Key()] {
		t.Fatal("wrong maximal set")
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Signature {
			var ivs []Interval
			used := map[int]bool{}
			for i := 0; i <= rng.Intn(3); i++ {
				a := rng.Intn(4)
				if used[a] {
					continue
				}
				used[a] = true
				lo := float64(rng.Intn(5)) / 10
				ivs = append(ivs, iv(a, lo, lo+0.1))
			}
			if len(ivs) == 0 {
				ivs = append(ivs, iv(0, 0, 0.1))
			}
			return New(ivs...)
		}
		a, b, c := mk(), mk(), mk()
		// Irreflexivity and asymmetry.
		if Less(a, a) {
			return false
		}
		if Less(a, b) && Less(b, a) {
			return false
		}
		// Transitivity.
		if Less(a, b) && Less(b, c) && !Less(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
