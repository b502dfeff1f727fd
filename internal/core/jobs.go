package core

import (
	"fmt"
	"sort"

	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
)

// --- Histogram job (§5.1) -------------------------------------------------------

// histogramJob computes one histogram per attribute over all splits: each
// mapper accumulates local per-attribute counts and emits them in Cleanup;
// a single reducer merges the partial histograms (Eq. 8).
func histogramJob(engine *mr.Engine, splits []*mr.Split, dim, bins int, trace obs.SpanID) ([]*histogram.Histogram, error) {
	job := &mr.Job{
		Name:   "histograms",
		Splits: splits,
		NewMapper: func() mr.Mapper {
			return &histMapper{dim: dim, bins: bins}
		},
		TypedReducer: sumVectorsReducer(),
		TraceParent:  trace,
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, err
	}
	hists := make([]*histogram.Histogram, dim)
	for d := range hists {
		hists[d] = histogram.New(bins)
	}
	for _, p := range out.Pairs {
		var d int
		if _, err := fmt.Sscanf(p.Key, "h%d", &d); err != nil {
			return nil, fmt.Errorf("core: bad histogram key %q: %w", p.Key, err)
		}
		counts := p.Value.([]int64)
		for b, c := range counts {
			hists[d].AddCount(b, c)
		}
	}
	return hists, nil
}

type histMapper struct {
	dim, bins int
	counts    [][]int64
	keys      []string
}

func (m *histMapper) Setup(*mr.TaskContext) error {
	m.counts = make([][]int64, m.dim)
	for d := range m.counts {
		m.counts[d] = make([]int64, m.bins)
	}
	m.keys = mr.IntKeys("h", m.dim)
	return nil
}

func (m *histMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	for d, v := range row {
		m.counts[d][histogram.BinIndex(v, m.bins)]++
	}
	return nil
}

func (m *histMapper) Cleanup(ctx *mr.TaskContext) error {
	for d, counts := range m.counts {
		ctx.Emit(m.keys[d], counts)
	}
	return nil
}

// sumVectorsReducer element-wise sums []int64 partials into a fresh
// accumulator, leaving the shuffled values untouched: reduce attempts may
// be retried under fault injection, and a retry re-reads the same shuffled
// input, so folding into values[0] in place would double-count (the engine's
// Reducer contract demands read-only values). Shared by the histogram,
// support-counting and redundancy-filter jobs, whose reduce sides are
// identical merges (Eq. 8).
func sumVectorsReducer() mr.TypedReducer {
	return mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
		first := values.Value(0).([]int64)
		agg := make([]int64, len(first))
		copy(agg, first)
		for i := 1; i < values.Len(); i++ {
			for j, c := range values.Value(i).([]int64) {
				agg[j] += c
			}
		}
		ctx.Emit(key, agg)
		return nil
	})
}

// --- Support counting job (§5.3, "Prove Candidates") ------------------------------

// countSupports measures the support of every signature with one MR job
// that counts vertically: each mapper streams its points into one bit
// column per distinct interval of the batch and, every few hundred points,
// adds each signature's popcount of the AND of its intervals' columns (see
// signature.ColumnIndex); a single reducer sums the count vectors.
func countSupports(engine *mr.Engine, splits []*mr.Split, sigs []signature.Signature, name string, trace obs.SpanID) ([]int64, error) {
	if len(sigs) == 0 {
		return nil, nil
	}
	job := &mr.Job{
		Name:   name,
		Splits: splits,
		Cache:  map[string]any{"columns": signature.NewColumnIndex(sigs)},
		NewMapper: func() mr.Mapper {
			return &supportMapper{}
		},
		TypedReducer: sumVectorsReducer(),
		TraceParent:  trace,
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, err
	}
	v, ok := out.Single("supports")
	if !ok {
		// No mapper emitted (empty input): all supports zero.
		return make([]int64, len(sigs)), nil
	}
	return v.([]int64), nil
}

type supportMapper struct {
	counter *signature.ColumnCounter
}

func (m *supportMapper) Setup(ctx *mr.TaskContext) error {
	m.counter = ctx.MustCache("columns").(*signature.ColumnIndex).NewSupportCounter()
	return nil
}

func (m *supportMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	m.counter.Add(row)
	return nil
}

func (m *supportMapper) Cleanup(ctx *mr.TaskContext) error {
	ctx.Emit("supports", m.counter.Counts())
	return nil
}

// --- Candidate generation job (§5.3) ----------------------------------------------

// generateCandidatesMR joins all compatible signature pairs of one a-priori
// level. When the pair count exceeds 2·Tgen the pair space is sharded over
// ⌊c/Tgen⌋ map-only tasks (the paper's distributed-cache scheme); otherwise
// the serial kernel runs inline. keys[i] is cands[i].Key().
func generateCandidatesMR(engine *mr.Engine, level []signature.Signature, tgen int64, trace obs.SpanID) (cands []signature.Signature, keys []string, err error) {
	k := int64(len(level))
	c := k * (k - 1) / 2
	if c == 0 {
		return nil, nil, nil
	}
	if tgen <= 0 || c <= 2*tgen {
		cands, keys = signature.GenerateKeyedCandidates(level, 0, c)
		return cands, keys, nil
	}
	numMappers := int(c / tgen)
	if numMappers < 2 {
		numMappers = 2
	}
	// Synthetic zero-row splits: the work is defined by the task id, the
	// level itself travels via the distributed cache.
	splits := make([]*mr.Split, numMappers)
	for i := range splits {
		splits[i] = &mr.Split{ID: i, Dim: 1}
	}
	per := (c + int64(numMappers) - 1) / int64(numMappers)
	job := &mr.Job{
		Name:   "candidate-generation",
		Splits: splits,
		Cache:  map[string]any{"level": level, "per": per, "total": c},
		NewMapper: func() mr.Mapper {
			return &genMapper{}
		},
		TraceParent: trace,
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, nil, err
	}
	// The main program collects candidates, ignoring duplicates across
	// mappers (§5.3).
	seen := make(map[string]bool)
	for _, p := range out.Pairs {
		if !seen[p.Key] {
			seen[p.Key] = true
			cands = append(cands, p.Value.(signature.Signature))
			keys = append(keys, p.Key)
		}
	}
	sortKeyed(cands, keys)
	return cands, keys, nil
}

// keyedCands sorts candidates canonically with their keys alongside.
type keyedCands struct {
	cands []signature.Signature
	keys  []string
}

func (k keyedCands) Len() int           { return len(k.cands) }
func (k keyedCands) Less(i, j int) bool { return signature.Less(k.cands[i], k.cands[j]) }
func (k keyedCands) Swap(i, j int) {
	k.cands[i], k.cands[j] = k.cands[j], k.cands[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}

// sortKeyed orders cands as signature.Sort does, keeping keys[i] with
// cands[i].
func sortKeyed(cands []signature.Signature, keys []string) {
	sort.Sort(keyedCands{cands, keys})
}

type genMapper struct{}

func (genMapper) Setup(*mr.TaskContext) error { return nil }

func (genMapper) Map(*mr.TaskContext, int, []float64) error { return nil }

func (genMapper) Cleanup(ctx *mr.TaskContext) error {
	level := ctx.MustCache("level").([]signature.Signature)
	per := ctx.MustCache("per").(int64)
	total := ctx.MustCache("total").(int64)
	lo := int64(ctx.TaskID) * per
	hi := lo + per
	if hi > total {
		hi = total
	}
	cands, keys := signature.GenerateKeyedCandidates(level, lo, hi)
	for i, cand := range cands {
		ctx.Emit(keys[i], cand)
	}
	return nil
}

// --- Redundancy filter job (§4.2.1) ------------------------------------------------

// uncoveredCounts runs one pass computing, per signature, how many of its
// support points are not covered by any strictly more interesting
// signature. Mappers count vertically, as in countSupports: per block of
// points, a signature's uncovered points are its column with the columns
// of its coverers removed (see signature.ColumnIndex.NewUncoveredCounter).
func uncoveredCounts(engine *mr.Engine, splits []*mr.Split, sigs []signature.Signature, ratios []float64, trace obs.SpanID) ([]int64, error) {
	if len(sigs) == 0 {
		return nil, nil
	}
	job := &mr.Job{
		Name:   "redundancy-uncovered",
		Splits: splits,
		Cache: map[string]any{
			"columns":  signature.NewColumnIndex(sigs),
			"coverage": signature.NewCoverageRelation(sigs, ratios),
		},
		NewMapper: func() mr.Mapper {
			return &uncoveredMapper{}
		},
		TypedReducer: sumVectorsReducer(),
		TraceParent:  trace,
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, err
	}
	v, ok := out.Single("uncovered")
	if !ok {
		return make([]int64, len(sigs)), nil
	}
	return v.([]int64), nil
}

type uncoveredMapper struct {
	counter *signature.ColumnCounter
}

func (m *uncoveredMapper) Setup(ctx *mr.TaskContext) error {
	rel := ctx.MustCache("coverage").(*signature.CoverageRelation)
	m.counter = ctx.MustCache("columns").(*signature.ColumnIndex).NewUncoveredCounter(rel)
	return nil
}

func (m *uncoveredMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	m.counter.Add(row)
	return nil
}

func (m *uncoveredMapper) Cleanup(ctx *mr.TaskContext) error {
	ctx.Emit("uncovered", m.counter.Counts())
	return nil
}

// --- Min/max interval-tightening job (§5.7) -----------------------------------------

// tighteningJob computes, per (cluster, attribute) of interest, the minimum
// and maximum attribute value over the cluster members. membership maps a
// global point index to its cluster (or a negative value for none); attrs
// lists the attributes to tighten per cluster.
func tighteningJob(engine *mr.Engine, splits []*mr.Split, membership []int, attrs [][]int, trace obs.SpanID) (mins, maxs []map[int]float64, err error) {
	k := len(attrs)
	job := &mr.Job{
		Name:        "interval-tightening",
		Splits:      splits,
		TraceParent: trace,
		Cache:       map[string]any{"membership": membership, "attrs": attrs},
		NewMapper: func() mr.Mapper {
			return &tightenMapper{}
		},
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := values.Value(0).([2]float64)
			for i := 1; i < values.Len(); i++ {
				mm := values.Value(i).([2]float64)
				if mm[0] < agg[0] {
					agg[0] = mm[0]
				}
				if mm[1] > agg[1] {
					agg[1] = mm[1]
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, nil, err
	}
	mins = make([]map[int]float64, k)
	maxs = make([]map[int]float64, k)
	for i := range mins {
		mins[i] = make(map[int]float64)
		maxs[i] = make(map[int]float64)
	}
	for _, p := range out.Pairs {
		var c, a int
		if _, err := fmt.Sscanf(p.Key, "t%d_%d", &c, &a); err != nil {
			return nil, nil, fmt.Errorf("core: bad tightening key %q: %w", p.Key, err)
		}
		mm := p.Value.([2]float64)
		mins[c][a] = mm[0]
		maxs[c][a] = mm[1]
	}
	return mins, maxs, nil
}

type tightenMapper struct {
	membership []int
	attrs      [][]int
	mins, maxs []map[int]float64
}

func (m *tightenMapper) Setup(ctx *mr.TaskContext) error {
	m.membership = ctx.MustCache("membership").([]int)
	m.attrs = ctx.MustCache("attrs").([][]int)
	m.mins = make([]map[int]float64, len(m.attrs))
	m.maxs = make([]map[int]float64, len(m.attrs))
	for i := range m.attrs {
		m.mins[i] = make(map[int]float64)
		m.maxs[i] = make(map[int]float64)
	}
	return nil
}

func (m *tightenMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	c := m.membership[global]
	if c < 0 || c >= len(m.attrs) {
		return nil
	}
	for _, a := range m.attrs[c] {
		v := row[a]
		if cur, ok := m.mins[c][a]; !ok || v < cur {
			m.mins[c][a] = v
		}
		if cur, ok := m.maxs[c][a]; !ok || v > cur {
			m.maxs[c][a] = v
		}
	}
	return nil
}

func (m *tightenMapper) Cleanup(ctx *mr.TaskContext) error {
	for _, p := range m.tightenedPairs() {
		ctx.Emit(p.Key, p.Value)
	}
	return nil
}

// tightenedPairs flattens the per-task min/max maps into emission order.
// It iterates the cluster's sorted attribute list, not the maps: map
// iteration order is randomized per run, and emission order feeds the
// shuffle, so ranging the maps here would break the engine's bit-identity
// guarantee. Attributes this task saw no point for have no map entry and
// are skipped.
func (m *tightenMapper) tightenedPairs() []mr.Pair {
	var out []mr.Pair
	for c := range m.attrs {
		for _, a := range m.attrs[c] {
			lo, ok := m.mins[c][a]
			if !ok {
				continue
			}
			out = append(out, mr.Pair{Key: fmt.Sprintf("t%d_%d", c, a), Value: [2]float64{lo, m.maxs[c][a]}})
		}
	}
	return out
}
