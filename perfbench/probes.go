package main

import (
	"fmt"
	"os"

	"p3cmr"
	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/em"
	"p3cmr/internal/histogram"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
	"p3cmr/internal/stats"
)

// probeRepeats is how many times each probe times its kernel; the median is
// reported.
const probeRepeats = 3

// runProbes times single layers through their public functions on the
// workload's own data, after the traced clustering has finished.
func runProbes(layer map[string]float64, a childArgs, data *dataset.Dataset, splits []*mr.Split, res *p3cmr.Result) error {
	if err := probeRead(layer, a.dataPath); err != nil {
		return err
	}
	if err := probeNoop(layer, splits, data.N(), a.parallelism); err != nil {
		return err
	}
	probeRSSC(layer, data)
	if a.workload.full() {
		return probeModel(layer, data, res)
	}
	return nil
}

// timed returns the median wall time of probeRepeats calls of f.
func timed(f func()) float64 {
	xs := make([]float64, probeRepeats)
	for i := range xs {
		t0 := obs.Now()
		f()
		xs[i] = obs.Since(t0).Seconds()
	}
	return median(xs)
}

// probeRead times dataset.ReadBinary on the workload file.
func probeRead(layer map[string]float64, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	var rerr error
	s := timed(func() {
		if _, err := readData(path); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return rerr
	}
	layer["dataset.read_s"] = s
	layer["dataset.read_mb_per_s"] = float64(fi.Size()) / (1 << 20) / s
	return nil
}

// probeNoop runs a map-only job whose mapper does nothing over the
// workload's splits: the engine's fixed cost per record.
func probeNoop(layer map[string]float64, splits []*mr.Split, n, parallelism int) error {
	engine := mr.NewEngine(mr.Config{Parallelism: parallelism})
	job := &mr.Job{
		Name:   "perfbench-noop",
		Splits: splits,
		Mapper: mr.MapperFunc(func(*mr.TaskContext, int, []float64) error { return nil }),
	}
	var rerr error
	s := timed(func() {
		if _, err := engine.Run(job); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return fmt.Errorf("noop job: %w", rerr)
	}
	layer["mr.noop_ns_per_record"] = s * 1e9 / float64(n)
	return nil
}

// probeRSSC builds the level-2 candidate set from the workload's relevant
// 1-D intervals, as core generation does, and times one RSSC query per
// point.
func probeRSSC(layer map[string]float64, data *dataset.Dataset) {
	n, d := data.N(), data.Dim
	bins := stats.FreedmanDiaconisBinsUniform(n)
	hists := make([]*histogram.Histogram, d)
	for a := range hists {
		hists[a] = histogram.New(bins)
	}
	for i := 0; i < n; i++ {
		for a, x := range data.Row(i) {
			hists[a].Add(x)
		}
	}
	alpha := core.NewParams().AlphaChi2
	var level1 []signature.Signature
	for a, h := range hists {
		for _, iv := range h.RelevantIntervals(alpha) {
			level1 = append(level1, signature.New(signature.Interval{Attr: a, Lo: iv.Lo, Hi: iv.Hi}))
		}
	}
	k := int64(len(level1))
	rssc := signature.NewRSSC(signature.GenerateCandidates(level1, 0, k*(k-1)/2))
	var mask []uint64
	s := timed(func() {
		for i := 0; i < n; i++ {
			mask = rssc.Query(mask, data.Row(i))
		}
	})
	layer["signature.rssc_query_ns"] = s * 1e9 / float64(n)
}

// probeModel builds a Gaussian mixture over the run's relevant attributes
// from the run's labels and times em.Model.Responsibilities and
// linalg.Cholesky.QuadForm on every point.
func probeModel(layer map[string]float64, data *dataset.Dataset, res *p3cmr.Result) error {
	attrs := res.Core.RelevantAttrs
	d := len(attrs)
	if d == 0 {
		return fmt.Errorf("model probe: the run found no relevant attributes")
	}
	n := data.N()
	proj := make([]float64, n*d)
	for i := 0; i < n; i++ {
		for j, a := range attrs {
			proj[i*d+j] = data.Row(i)[a]
		}
	}
	k := len(res.Signatures)
	members := make([][]float64, k)
	for i, l := range res.Labels {
		if l >= 0 {
			members[l] = append(members[l], proj[i*d:(i+1)*d]...)
		}
	}
	model := &em.Model{Attrs: attrs}
	largest := -1
	for c, rows := range members {
		if len(rows) < 2*d {
			continue
		}
		mu := linalg.Mean(rows, d)
		model.Components = append(model.Components, &em.Component{
			Weight: float64(len(rows)/d) / float64(n), Mean: mu, Cov: linalg.Covariance(rows, d, mu),
		})
		if largest < 0 || len(rows) > len(members[largest]) {
			largest = c
		}
	}
	if largest < 0 {
		return fmt.Errorf("model probe: no cluster has enough members")
	}
	if err := model.Prepare(); err != nil {
		return fmt.Errorf("model probe: %w", err)
	}
	resp := make([]float64, model.K())
	diff, solve := make([]float64, d), make([]float64, d)
	s := timed(func() {
		for i := 0; i < n; i++ {
			model.Responsibilities(resp, proj[i*d:(i+1)*d], diff, solve)
		}
	})
	layer["em.responsibilities_ns"] = s * 1e9 / float64(n)

	mu := linalg.Mean(members[largest], d)
	chol, err := linalg.CholeskyDecompose(linalg.RegularizeSPD(linalg.Covariance(members[largest], d, mu), 1e-9))
	if err != nil {
		return fmt.Errorf("quadform probe: %w", err)
	}
	centred := make([]float64, len(proj))
	for i := range proj {
		centred[i] = proj[i] - mu[i%d]
	}
	s = timed(func() {
		for i := 0; i < n; i++ {
			chol.QuadForm(centred[i*d:(i+1)*d], solve)
		}
	})
	ns := s * 1e9 / float64(n)
	layer["linalg.quadform_ns"] = ns
	// Forward substitution costs about d² floating-point operations.
	layer["linalg.quadform_mflops"] = float64(d*d) / ns * 1e3
	return nil
}
