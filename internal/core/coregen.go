package core

import (
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
	"p3cmr/internal/stats"
)

// coreGenerator runs Algorithm 1: a-priori generation of p-signatures from
// the relevant intervals, support proving with the Poisson (and optionally
// effect-size) test, multi-level candidate collection to batch proving jobs
// (§5.3), and the final maximality filter.
type coreGenerator struct {
	params    Params
	engine    *mr.Engine
	splits    []*mr.Split
	n         int
	support   map[string]int64 // signature key → measured support
	proven    map[string]bool  // signature key → passed all tests
	failed    map[string]bool  // signature key → tested and rejected
	tested    int
	truncated int // levels cut by LevelCap
	// trace is the phase span the generator's jobs nest under (0 = untraced).
	trace obs.SpanID
}

func newCoreGenerator(params Params, engine *mr.Engine, splits []*mr.Split, n int) *coreGenerator {
	return &coreGenerator{
		params:  params,
		engine:  engine,
		splits:  splits,
		n:       n,
		support: make(map[string]int64),
		proven:  make(map[string]bool),
		failed:  make(map[string]bool),
	}
}

// passes applies the combined support test of §4.1.2: the observed support
// must be significantly larger than expected under Poisson statistics, and,
// when enabled, the relative deviation must reach θcc.
func (g *coreGenerator) passes(observed int64, expected float64) bool {
	if !stats.PoissonTest(float64(observed), expected, g.params.AlphaPoisson) {
		return false
	}
	if g.params.UseEffectSize && !stats.EffectSizeTest(float64(observed), expected, g.params.ThetaCC) {
		return false
	}
	return true
}

// proveLevel1 seeds the lattice: each relevant interval becomes a
// 1-signature tested against the uniform expectation n·width (supports are
// already known from the histograms).
func (g *coreGenerator) proveLevel1(intervals []signature.Interval, supports []int64) []signature.Signature {
	var proven []signature.Signature
	for i, iv := range intervals {
		s := signature.New(iv)
		key := s.Key()
		g.support[key] = supports[i]
		g.tested++
		if g.passes(supports[i], s.ExpectedSupport(g.n)) {
			g.proven[key] = true
			proven = append(proven, s)
		} else {
			g.failed[key] = true
		}
	}
	signature.Sort(proven)
	return proven
}

// batch is one collected level of unproven candidates; keys[i] is
// cands[i].Key(), computed once when the candidate is generated.
type batch struct {
	level int
	cands []signature.Signature
	keys  []string
}

// run executes the generation loop and returns all proven signatures.
func (g *coreGenerator) run(intervals []signature.Interval, supports []int64) ([]signature.Signature, error) {
	level1 := g.proveLevel1(intervals, supports)
	allProven := append([]signature.Signature(nil), level1...)
	current := level1
	k := 2
	for len(current) > 0 && (g.params.MaxP == 0 || k <= g.params.MaxP) {
		// Multi-level candidate collection (§5.3): generate successive
		// levels from unproven candidates, deferring the proving job until
		// the stop heuristic fires:
		//   |Cand_j| == 0  ∨  (csum > Tc ∧ |Cand_j| > |Cand_j−1|).
		var collected []batch
		csum := 0
		prevSize := -1
		basis := current
		for g.params.MaxP == 0 || k <= g.params.MaxP {
			cands, keys, err := generateCandidatesMR(g.engine, basis, g.params.Tgen, g.trace)
			if err != nil {
				return nil, err
			}
			cands, keys = g.filterKnown(cands, keys)
			if cap := g.params.LevelCap; cap > 0 && len(cands) > cap {
				// Pathologically wide lattice (see Params.LevelCap): keep a
				// deterministic prefix rather than enumerate a level no
				// cluster could hold.
				sortKeyed(cands, keys)
				cands, keys = cands[:cap], keys[:cap]
				g.truncated++
			}
			if len(cands) == 0 {
				break
			}
			collected = append(collected, batch{level: k, cands: cands, keys: keys})
			csum += len(cands)
			// Defer proving only while the level stays small (§5.3: "if the
			// number of generated candidates on a level j is small"): a
			// large unproven level would make the next join quadratic in
			// its size, so it is proven (and thereby pruned) first.
			if len(cands) > g.params.Tc {
				break
			}
			if csum > g.params.Tc && prevSize >= 0 && len(cands) > prevSize {
				break
			}
			prevSize = len(cands)
			basis = cands
			k++
		}
		if len(collected) == 0 {
			break
		}
		newTop, err := g.proveBatches(collected)
		if err != nil {
			return nil, err
		}
		for _, b := range collected {
			for i, c := range b.cands {
				if g.proven[b.keys[i]] {
					allProven = append(allProven, c)
				}
			}
		}
		// Continue the a-priori sweep from the proven signatures of the
		// topmost collected level; when that set is empty no higher level
		// can satisfy the downward closure and the loop terminates.
		current = newTop
		k = collected[len(collected)-1].level + 1
	}
	return allProven, nil
}

// filterKnown drops candidates that were already tested, in place, with
// their keys.
func (g *coreGenerator) filterKnown(cands []signature.Signature, keys []string) ([]signature.Signature, []string) {
	n := 0
	for i, key := range keys {
		if !g.proven[key] && !g.failed[key] {
			cands[n], keys[n] = cands[i], key
			n++
		}
	}
	return cands[:n], keys[:n]
}

// proveBatches counts the supports of all collected candidates with a
// single MR job (§5.3) and evaluates the tests level by level, enforcing
// the downward closure of Definition 5: a candidate passes only when every
// immediate (p−1)-sub-signature is itself proven and the candidate's
// support is significant against each of them (Eq. 1). It returns the
// proven signatures of the topmost batch level.
func (g *coreGenerator) proveBatches(collected []batch) ([]signature.Signature, error) {
	var need []signature.Signature
	var needKeys []string
	seen := make(map[string]bool)
	for _, b := range collected {
		for i, c := range b.cands {
			key := b.keys[i]
			if _, ok := g.support[key]; !ok && !seen[key] {
				seen[key] = true
				need = append(need, c)
				needKeys = append(needKeys, key)
			}
		}
	}
	counts, err := countSupports(g.engine, g.splits, need, "prove-candidates", g.trace)
	if err != nil {
		return nil, err
	}
	for i, key := range needKeys {
		g.support[key] = counts[i]
	}

	var top []signature.Signature
	for bi, b := range collected {
		var provenHere []signature.Signature
		for i, cand := range b.cands {
			key := b.keys[i]
			g.tested++
			if g.candidatePasses(cand, key) {
				g.proven[key] = true
				provenHere = append(provenHere, cand)
			} else {
				g.failed[key] = true
			}
		}
		if bi == len(collected)-1 {
			top = provenHere
		}
	}
	signature.Sort(top)
	return top, nil
}

// candidatePasses evaluates Eq. 1 for one candidate, whose key is key,
// against each immediate sub-signature.
func (g *coreGenerator) candidatePasses(cand signature.Signature, key string) bool {
	supp, ok := g.support[key]
	if !ok {
		return false
	}
	for idx := range cand.Intervals {
		subKey := signature.KeyWithout(key, idx)
		if !g.proven[subKey] {
			return false
		}
		subSupp, ok := g.support[subKey]
		if !ok {
			return false
		}
		expected := signature.ExpectedSupportGiven(float64(subSupp), cand.Intervals[idx])
		if !g.passes(supp, expected) {
			return false
		}
	}
	return true
}
