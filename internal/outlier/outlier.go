// Package outlier implements the outlier-detection phase of P3C/P3C+
// (paper §3.2.2, §4.2.2, §5.5): points whose Mahalanobis distance to their
// cluster exceeds the chi-square critical value at confidence alpha are
// outliers. Two estimators for the cluster location/scatter are provided:
//
//   - Naive: the mean and covariance delivered by the EM phase. It suffers
//     from the masking effect — outliers inflate the estimates and hide
//     themselves.
//   - MVB: an approximate minimum-volume-ball robust estimator. The ball
//     centre is the dimension-wise median of the cluster members, the
//     radius the median distance to the centre; mean and covariance are
//     re-estimated from the in-ball points only. On MapReduce the medians
//     are approximated by the median-of-split-medians, exactly as §5.5
//     prescribes.
package outlier

import (
	"fmt"
	"math"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/stats"
)

// Method selects the estimator.
type Method int

const (
	// Naive uses the EM means and covariances directly.
	Naive Method = iota
	// MVB re-estimates from a robust minimum-volume-ball core.
	MVB
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case MVB:
		return "mvb"
	case MVE:
		return "mve"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// OutlierLabel marks a point that belongs to no cluster.
const OutlierLabel = -1

// Detect runs the OD job (§5.5): every point is assigned to its most likely
// component and flagged as an outlier when its squared Mahalanobis distance
// exceeds the chi-square critical value with |Arel| degrees of freedom at
// level alpha. With method MVB the cluster statistics are first re-estimated
// robustly with three additional MR jobs. The returned labels hold a cluster
// index or OutlierLabel per global point index; n must be the total point
// count across splits. trace is the span the jobs nest under (0 = untraced).
func Detect(engine *mr.Engine, splits []*mr.Split, model *em.Model, n int, method Method, alpha float64, trace obs.SpanID) ([]int, error) {
	testModel := model
	switch method {
	case MVB:
		robust, err := robustModel(engine, splits, model, trace)
		if err != nil {
			return nil, err
		}
		testModel = robust
	case MVE:
		robust, err := mveModel(engine, splits, model, trace)
		if err != nil {
			return nil, err
		}
		testModel = robust
	}
	if err := testModel.Prepare(); err != nil {
		return nil, err
	}
	// Assignment always follows the EM mixture; only the distance test uses
	// the (possibly robust) statistics.
	if err := model.Prepare(); err != nil {
		return nil, err
	}
	crit := stats.ChiSquareCritical(alpha, len(model.Attrs))

	job := &mr.Job{
		Name:        "outlier-detect",
		Splits:      splits,
		TraceParent: trace,
		NewMapper: func() mr.Mapper {
			return &odMapper{assign: model, test: testModel, crit: crit}
		},
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, err
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = OutlierLabel
	}
	for _, p := range out.Pairs {
		idx := p.Value.([2]int)
		if idx[0] < 0 || idx[0] >= n {
			return nil, fmt.Errorf("outlier: point index %d out of range", idx[0])
		}
		labels[idx[0]] = idx[1]
	}
	emitOutlierStats(engine, trace, labels, n)
	return labels, nil
}

// emitOutlierStats publishes the phase's quality signals — outlier count
// and outlier mass (fraction of all points flagged) — as metric points on
// the phase span and p3c_quality_* registry families. Driver-side, from
// the final label vector, so the values are bit-identical across backends.
func emitOutlierStats(engine *mr.Engine, span obs.SpanID, labels []int, n int) {
	outliers := 0
	for _, l := range labels {
		if l == OutlierLabel {
			outliers++
		}
	}
	mass := float64(outliers) / float64(n)
	tr := engine.Tracer()
	if tr != nil {
		tr.Point(obs.Point{Span: span, Kind: obs.PointMetric, Name: "quality_outliers", Value: float64(outliers)})
		tr.Point(obs.Point{Span: span, Kind: obs.PointMetric, Name: "quality_outlier_mass", Value: mass})
	}
	reg := engine.Metrics()
	if reg != nil {
		reg.Counter("p3c_quality_outliers_total").Add(int64(outliers))
		reg.Gauge("p3c_quality_outlier_mass").Set(mass)
	}
}

// odMapper is the map-only OD job: it emits (global index, label), a block
// of rows at a time in row order.
type odMapper struct {
	assign *em.Model
	test   *em.Model
	crit   float64
	block  *em.Block
	comp   []int
	dist   []float64
}

func (m *odMapper) Setup(*mr.TaskContext) error {
	m.block = m.assign.NewBlock()
	m.comp = make([]int, em.BlockRows)
	m.dist = make([]float64, em.BlockRows)
	return nil
}

func (m *odMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	if m.block.Add(m.assign, global, row) {
		m.flush(ctx)
	}
	return nil
}

func (m *odMapper) flush(ctx *mr.TaskContext) {
	b := m.block
	m.assign.BlockMostLikely(m.comp, b)
	m.test.BlockMahalanobis(m.dist, m.comp, b)
	for r := 0; r < b.Len(); r++ {
		label := m.comp[r]
		if d := m.dist[r]; d*d > m.crit {
			label = OutlierLabel
		}
		ctx.Emit("p", [2]int{b.Global(r), label})
	}
	b.Reset()
}

func (m *odMapper) Cleanup(ctx *mr.TaskContext) error {
	m.flush(ctx)
	return nil
}

// ballStat ships one split's per-cluster MVB approximation.
type ballStat struct {
	Center []float64
	Radius float64
	Count  int64
}

// robustModel performs the three MVB jobs of §5.5 and returns a model with
// the robust means/covariances (weights and Attrs copied from model).
func robustModel(engine *mr.Engine, splits []*mr.Split, model *em.Model, trace obs.SpanID) (*em.Model, error) {
	if err := model.Prepare(); err != nil {
		return nil, err
	}
	k := model.K()
	d := len(model.Attrs)

	// Job 1: per-split medians and radii per cluster; reducer aggregates by
	// dimension-wise median of means and median of radii.
	job1 := &mr.Job{
		Name:        "mvb-ball",
		Splits:      splits,
		TraceParent: trace,
		NewMapper: func() mr.Mapper {
			return &ballMapper{model: model}
		},
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			per := make([]ballStat, 0, values.Len())
			for i := 0; i < values.Len(); i++ {
				per = append(per, values.Value(i).(ballStat))
			}
			agg := ballStat{Center: make([]float64, d)}
			col := make([]float64, 0, len(per))
			for j := 0; j < d; j++ {
				col = col[:0]
				for _, st := range per {
					col = append(col, st.Center[j])
				}
				agg.Center[j] = stats.MedianInPlace(col)
			}
			col = col[:0]
			for _, st := range per {
				col = append(col, st.Radius)
				agg.Count += st.Count
			}
			agg.Radius = stats.MedianInPlace(col)
			ctx.Emit(key, agg)
			return nil
		}),
	}
	out1, err := engine.Run(job1)
	if err != nil {
		return nil, err
	}
	balls := make([]*ballStat, k)
	for _, p := range out1.Pairs {
		c, err := mr.IntKeyIndex("c", p.Key, k)
		if err != nil {
			return nil, fmt.Errorf("outlier: mvb-ball job: %w", err)
		}
		st := p.Value.(ballStat)
		balls[c] = &st
	}

	// Jobs 2+3: mean then covariance of the in-ball points per cluster,
	// exactly as the EM initialization computes its statistics.
	rule := coreRule{balls: balls}
	means, counts, err := coreMeans(engine, splits, model, rule, "mvb-mean", trace)
	if err != nil {
		return nil, err
	}
	covs, err := coreCovariances(engine, splits, model, rule, means, "mvb-cov", trace)
	if err != nil {
		return nil, err
	}

	robust := model.Clone()
	for i := 0; i < k; i++ {
		if counts[i] >= 2 {
			robust.Components[i].Mean = means[i]
			robust.Components[i].Cov = covs[i]
		}
		// Clusters whose ball captured <2 points keep the EM statistics.
	}
	return robust, nil
}

// ballMapper caches its split's points grouped by most-likely cluster and in
// Cleanup computes each cluster's split-local MVB approximation: the
// dimension-wise median centre and the median distance radius.
type ballMapper struct {
	model  *em.Model
	groups [][]float64 // projected points per cluster, row-major
	keys   []string
	block  *em.Block
	comp   []int
}

func (m *ballMapper) Setup(*mr.TaskContext) error {
	m.groups = make([][]float64, m.model.K())
	m.keys = mr.IntKeys("c", m.model.K())
	m.block = m.model.NewBlock()
	m.comp = make([]int, em.BlockRows)
	return nil
}

func (m *ballMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	if m.block.Add(m.model, global, row) {
		m.flush()
	}
	return nil
}

func (m *ballMapper) flush() {
	b := m.block
	m.model.BlockMostLikely(m.comp, b)
	for r := 0; r < b.Len(); r++ {
		c := m.comp[r]
		m.groups[c] = append(m.groups[c], b.Row(r)...)
	}
	b.Reset()
}

func (m *ballMapper) Cleanup(ctx *mr.TaskContext) error {
	m.flush()
	d := len(m.model.Attrs)
	col := make([]float64, 0, 1024)
	for c, rows := range m.groups {
		n := len(rows) / d
		if n == 0 {
			continue
		}
		center := make([]float64, d)
		for j := 0; j < d; j++ {
			col = col[:0]
			for i := 0; i < n; i++ {
				col = append(col, rows[i*d+j])
			}
			center[j] = stats.MedianInPlace(col)
		}
		dists := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < d; j++ {
				diff := rows[i*d+j] - center[j]
				s += diff * diff
			}
			dists[i] = math.Sqrt(s)
		}
		ctx.Emit(m.keys[c], ballStat{Center: center, Radius: stats.MedianInPlace(dists), Count: int64(n)})
	}
	return nil
}

// meanStat ships per-cluster in-core sums.
type meanStat struct {
	Sum   []float64
	Count int64
}

// scatterStat ships per-cluster in-core scatter.
type scatterStat struct {
	S     []float64
	Count int64
}

// coreRule decides whether a point assigned to cluster c lies in the
// cluster's robust core: inside its MVB ball (balls, §5.5) or, for the MVE
// extension (balls nil), inside the ellipsoid (x−µ)ᵀΣ⁻¹(x−µ) ≤ radius2 of
// the model the points are assigned under.
type coreRule struct {
	balls   []*ballStat
	radius2 float64
}

// coreMeans runs the job that averages each cluster's core points. Clusters
// with an empty core keep the model's mean; the core sizes are returned.
func coreMeans(engine *mr.Engine, splits []*mr.Split, model *em.Model, rule coreRule, name string, trace obs.SpanID) ([][]float64, []int64, error) {
	d := len(model.Attrs)
	k := model.K()
	job := &mr.Job{
		Name:        name,
		Splits:      splits,
		TraceParent: trace,
		NewMapper: func() mr.Mapper {
			return &inCoreMapper{model: model, rule: rule}
		},
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := meanStat{Sum: make([]float64, d)}
			for i := 0; i < values.Len(); i++ {
				st := values.Value(i).(meanStat)
				agg.Count += st.Count
				for j := range agg.Sum {
					agg.Sum[j] += st.Sum[j]
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
	means := make([][]float64, k)
	counts := make([]int64, k)
	for i := range means {
		means[i] = append([]float64(nil), model.Components[i].Mean...)
	}
	for _, p := range out.Pairs {
		c, err := mr.IntKeyIndex("c", p.Key, k)
		if err != nil {
			return nil, nil, fmt.Errorf("outlier: %s job: %w", name, err)
		}
		st := p.Value.(meanStat)
		counts[c] = st.Count
		if st.Count > 0 {
			mu := make([]float64, d)
			for j := range mu {
				mu[j] = st.Sum[j] / float64(st.Count)
			}
			means[c] = mu
		}
	}
	return means, counts, nil
}

// coreCovariances runs the job that takes each cluster's core scatter
// around means. Clusters with fewer than two core points keep the model's
// covariance.
func coreCovariances(engine *mr.Engine, splits []*mr.Split, model *em.Model, rule coreRule, means [][]float64, name string, trace obs.SpanID) ([]*linalg.Matrix, error) {
	d := len(model.Attrs)
	k := model.K()
	job := &mr.Job{
		Name:        name,
		Splits:      splits,
		TraceParent: trace,
		NewMapper: func() mr.Mapper {
			return &inCoreMapper{model: model, rule: rule, emitCov: true, means: means}
		},
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := scatterStat{S: make([]float64, d*d)}
			for i := 0; i < values.Len(); i++ {
				st := values.Value(i).(scatterStat)
				agg.Count += st.Count
				for j := range agg.S {
					agg.S[j] += st.S[j]
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, err
	}
	covs := make([]*linalg.Matrix, k)
	for i := range covs {
		covs[i] = model.Components[i].Cov.Clone()
	}
	for _, p := range out.Pairs {
		c, err := mr.IntKeyIndex("c", p.Key, k)
		if err != nil {
			return nil, fmt.Errorf("outlier: %s job: %w", name, err)
		}
		st := p.Value.(scatterStat)
		if st.Count >= 2 {
			cov := linalg.NewMatrix(d, d)
			f := 1 / float64(st.Count-1)
			for j := range cov.Data {
				cov.Data[j] = st.S[j] * f
			}
			covs[c] = cov
		}
	}
	return covs, nil
}

// inCoreMapper accumulates sums (or scatter) of the points inside each
// cluster's core.
type inCoreMapper struct {
	model   *em.Model
	rule    coreRule
	emitCov bool
	means   [][]float64

	sums     []meanStat
	scatters []scatterStat
	keys     []string
	block    *em.Block
	comp     []int
	dist     []float64
	scratch  []float64
}

func (m *inCoreMapper) Setup(*mr.TaskContext) error {
	d := len(m.model.Attrs)
	k := m.model.K()
	m.keys = mr.IntKeys("c", k)
	if m.emitCov {
		m.scatters = make([]scatterStat, k)
		for i := range m.scatters {
			m.scatters[i].S = make([]float64, d*d)
		}
	} else {
		m.sums = make([]meanStat, k)
		for i := range m.sums {
			m.sums[i].Sum = make([]float64, d)
		}
	}
	m.block = m.model.NewBlock()
	m.comp = make([]int, em.BlockRows)
	m.dist = make([]float64, em.BlockRows)
	m.scratch = make([]float64, 2*d)
	return nil
}

// unitWeight weights one row of an unweighted scatter update.
var unitWeight = []float64{1}

func (m *inCoreMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	if m.block.Add(m.model, global, row) {
		m.flush()
	}
	return nil
}

// inCore reports whether buffered row r, assigned to cluster c, lies in the
// cluster's core.
func (m *inCoreMapper) inCore(r, c int, x []float64) bool {
	if m.rule.balls == nil {
		return !(m.dist[r]*m.dist[r] > m.rule.radius2)
	}
	ball := m.rule.balls[c]
	if ball == nil {
		return false
	}
	s := 0.0
	for j, v := range x {
		diff := v - ball.Center[j]
		s += diff * diff
	}
	return !(math.Sqrt(s) > ball.Radius)
}

func (m *inCoreMapper) flush() {
	b := m.block
	m.model.BlockMostLikely(m.comp, b)
	if m.rule.balls == nil {
		m.model.BlockMahalanobis(m.dist, m.comp, b)
	}
	for r := 0; r < b.Len(); r++ {
		c, x := m.comp[r], b.Row(r)
		if !m.inCore(r, c, x) {
			continue
		}
		if m.emitCov {
			linalg.ScatterLower(m.scatters[c].S, unitWeight, x, m.means[c], m.scratch)
			m.scatters[c].Count++
			continue
		}
		st := &m.sums[c]
		for j, v := range x {
			st.Sum[j] += v
		}
		st.Count++
	}
	b.Reset()
}

func (m *inCoreMapper) Cleanup(ctx *mr.TaskContext) error {
	m.flush()
	if m.emitCov {
		for c, st := range m.scatters {
			if st.Count > 0 {
				linalg.MirrorLower(st.S, len(m.model.Attrs))
				ctx.Emit(m.keys[c], st)
			}
		}
		return nil
	}
	for c, st := range m.sums {
		if st.Count > 0 {
			ctx.Emit(m.keys[c], st)
		}
	}
	return nil
}
