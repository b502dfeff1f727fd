package core

import (
	"fmt"
	"sort"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
)

// relevantAttrs returns Arel (Eq. 3): the union of the cores' attributes,
// ascending.
func relevantAttrs(cores []signature.Signature) []int {
	set := make(map[int]bool)
	for _, c := range cores {
		for _, a := range c.Attrs() {
			set[a] = true
		}
	}
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// initEMModel performs the two-iteration initialization of §5.4:
//
//  1. means and covariances from the cores' support sets only;
//  2. outliers (points in no core) assigned to their Mahalanobis-nearest
//     core, then means and covariances recomputed over support sets plus
//     assigned outliers.
//
// Each iteration is two MR jobs (means, then covariances). The returned
// model carries mixing weights proportional to the member counts.
func initEMModel(engine *mr.Engine, splits []*mr.Split, cores []signature.Signature, n int, trace obs.SpanID) (*em.Model, error) {
	attrs := relevantAttrs(cores)
	rssc := signature.NewRSSC(cores)

	model1, err := estimateCoreModel(engine, splits, rssc, attrs, nil, n, trace)
	if err != nil {
		return nil, fmt.Errorf("core: EM init pass 1: %w", err)
	}
	model2, err := estimateCoreModel(engine, splits, rssc, attrs, model1, n, trace)
	if err != nil {
		return nil, fmt.Errorf("core: EM init pass 2: %w", err)
	}
	return model2, nil
}

// estimateCoreModel runs one means job and one covariances job. When
// fallback is non-nil, points outside every core support set are assigned
// to their Mahalanobis-nearest fallback component; otherwise they are
// ignored.
func estimateCoreModel(engine *mr.Engine, splits []*mr.Split, rssc *signature.RSSC, attrs []int, fallback *em.Model, n int, trace obs.SpanID) (*em.Model, error) {
	if fallback != nil {
		if err := fallback.Prepare(); err != nil {
			return nil, err
		}
	}
	k := rssc.NumSignatures()
	d := len(attrs)

	// Job 1: per-core linear sums and counts.
	type sumStat struct {
		Sum   []float64
		Count int64
	}
	job1 := &mr.Job{
		Name:        "em-init-means",
		Splits:      splits,
		TraceParent: trace,
		Cache:       map[string]any{"rssc": rssc},
		NewMapper: func() mr.Mapper {
			return &coreMomentMapper{attrs: attrs, fallback: fallback, k: k}
		},
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := sumStat{Sum: make([]float64, d)}
			for i := 0; i < values.Len(); i++ {
				st := values.Value(i).([2]any)
				agg.Count += st[1].(int64)
				for j, x := range st[0].([]float64) {
					agg.Sum[j] += x
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}
	out1, err := engine.Run(job1)
	if err != nil {
		return nil, err
	}
	means := make([][]float64, k)
	counts := make([]int64, k)
	for i := range means {
		means[i] = make([]float64, d)
	}
	for _, p := range out1.Pairs {
		c, err := mr.IntKeyIndex("c", p.Key, k)
		if err != nil {
			return nil, fmt.Errorf("em-init-means job: %w", err)
		}
		st := p.Value.(sumStat)
		counts[c] = st.Count
		if st.Count > 0 {
			for j := range means[c] {
				means[c][j] = st.Sum[j] / float64(st.Count)
			}
		}
	}

	// Job 2: per-core scatter around the means.
	job2 := &mr.Job{
		Name:        "em-init-cov",
		Splits:      splits,
		TraceParent: trace,
		Cache:       map[string]any{"rssc": rssc},
		NewMapper: func() mr.Mapper {
			return &coreScatterMapper{attrs: attrs, fallback: fallback, k: k, means: means}
		},
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			var agg []float64
			for i := 0; i < values.Len(); i++ {
				s := values.Value(i).([]float64)
				if agg == nil {
					agg = make([]float64, len(s))
				}
				for j, x := range s {
					agg[j] += x
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}
	out2, err := engine.Run(job2)
	if err != nil {
		return nil, err
	}
	model := &em.Model{Attrs: attrs}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		total = int64(n)
	}
	scatters := make([][]float64, k)
	for _, p := range out2.Pairs {
		c, err := mr.IntKeyIndex("c", p.Key, k)
		if err != nil {
			return nil, fmt.Errorf("em-init-cov job: %w", err)
		}
		scatters[c] = p.Value.([]float64)
	}
	for i := 0; i < k; i++ {
		cov := linalg.NewMatrix(d, d)
		if counts[i] >= 2 && scatters[i] != nil {
			f := 1 / float64(counts[i]-1)
			for j := range cov.Data {
				cov.Data[j] = scatters[i][j] * f
			}
		} else {
			// Degenerate core: fall back to a diagonal prior matching the
			// core's interval widths so EM can still move it.
			for j := 0; j < d; j++ {
				cov.Set(j, j, 1e-2)
			}
		}
		model.Components = append(model.Components, &em.Component{
			Weight: float64(counts[i]+1) / float64(total+int64(k)),
			Mean:   means[i],
			Cov:    cov,
		})
	}
	return model, nil
}

// coreMomentMapper accumulates per-core linear sums over the core support
// sets (plus fallback assignments for out-of-core points when enabled).
type coreMomentMapper struct {
	attrs    []int
	fallback *em.Model
	k        int

	rssc   *signature.RSSC
	sums   [][]float64
	counts []int64
	keys   []string
	mask   []uint64
	proj   []float64
	sc1    []float64
	sc2    []float64
	ids    []int
}

func (m *coreMomentMapper) Setup(ctx *mr.TaskContext) error {
	m.rssc = ctx.MustCache("rssc").(*signature.RSSC)
	d := len(m.attrs)
	m.sums = make([][]float64, m.k)
	for i := range m.sums {
		m.sums[i] = make([]float64, d)
	}
	m.counts = make([]int64, m.k)
	m.keys = mr.IntKeys("c", m.k)
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *coreMomentMapper) project(row []float64) []float64 {
	for i, a := range m.attrs {
		m.proj[i] = row[a]
	}
	return m.proj
}

// membership returns the core indices containing the point, or the fallback
// assignment when the point is in no core and a fallback model exists.
func (m *coreMomentMapper) membership(row []float64) []int {
	m.mask = m.rssc.Query(m.mask, row)
	m.ids = signature.Ones(m.ids[:0], m.mask)
	if len(m.ids) == 0 && m.fallback != nil {
		x := m.project(row)
		best, bestD := -1, 0.0
		for i := 0; i < m.k; i++ {
			d := m.fallback.Mahalanobis(i, x, m.sc1, m.sc2)
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		m.ids = append(m.ids, best)
	}
	return m.ids
}

func (m *coreMomentMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	ids := m.membership(row)
	if len(ids) == 0 {
		return nil
	}
	x := m.project(row)
	for _, c := range ids {
		m.counts[c]++
		for j, v := range x {
			m.sums[c][j] += v
		}
	}
	return nil
}

func (m *coreMomentMapper) Cleanup(ctx *mr.TaskContext) error {
	for c := 0; c < m.k; c++ {
		if m.counts[c] > 0 {
			ctx.Emit(m.keys[c], [2]any{m.sums[c], m.counts[c]})
		}
	}
	return nil
}

// coreScatterMapper accumulates per-core scatter matrices around fixed
// means, lower triangle only; Cleanup mirrors them before emitting.
type coreScatterMapper struct {
	attrs    []int
	fallback *em.Model
	k        int
	means    [][]float64

	inner    coreMomentMapper
	scatters [][]float64
	scratch  []float64
}

func (m *coreScatterMapper) Setup(ctx *mr.TaskContext) error {
	m.inner = coreMomentMapper{attrs: m.attrs, fallback: m.fallback, k: m.k}
	if err := m.inner.Setup(ctx); err != nil {
		return err
	}
	d := len(m.attrs)
	m.scatters = make([][]float64, m.k)
	for i := range m.scatters {
		m.scatters[i] = make([]float64, d*d)
	}
	m.scratch = make([]float64, 2*d)
	return nil
}

// unitWeight weights one row of an unweighted scatter update.
var unitWeight = []float64{1}

func (m *coreScatterMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	ids := m.inner.membership(row)
	if len(ids) == 0 {
		return nil
	}
	x := m.inner.project(row)
	for _, c := range ids {
		linalg.ScatterLower(m.scatters[c], unitWeight, x, m.means[c], m.scratch)
	}
	return nil
}

func (m *coreScatterMapper) Cleanup(ctx *mr.TaskContext) error {
	for c := 0; c < m.k; c++ {
		linalg.MirrorLower(m.scatters[c], len(m.attrs))
		ctx.Emit(m.inner.keys[c], m.scatters[c])
	}
	return nil
}
