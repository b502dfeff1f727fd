package em

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// The goldens below pin FitMR's output to the bit. They were recorded
// before the block density and lower-triangle scatter kernels replaced the
// per-row ones, so they prove those kernels change no bit of the fitted
// weights, means, covariance lower triangles (the half the Cholesky reads)
// or convergence points.
const (
	// goldenFitDigest is the digest of the fit over 250-row splits.
	goldenFitDigest = "7b793734f56d31b17dd15621cc7aaf1a9e1664e09cf0c54b8f543cbc82e6d8d6"
	// goldenFitTinyDigest is the digest of the same fit over 7-row splits,
	// smaller than one block (per-split sums group differently, so the
	// digest differs from goldenFitDigest).
	goldenFitTinyDigest = "cce67b52f84d8a6461d91deee94644da253af43ca742e3ff5ecf491a49bdf406"
)

// goldenAttrs is the subspace the golden mixture lives in.
var goldenAttrs = []int{0, 1, 3, 4, 6}

// goldenSplits draws three Gaussian blobs in goldenAttrs of a 7-dim space
// (uniform noise elsewhere) and cuts the n rows into splits of splitRows.
func goldenSplits(n, splitRows int) []*mr.Split {
	const dim = 7
	rng := rand.New(rand.NewSource(11))
	centres := [][]float64{{0.2, 0.3, 0.2, 0.7, 0.5}, {0.7, 0.6, 0.8, 0.3, 0.4}, {0.5, 0.8, 0.4, 0.2, 0.8}}
	rows := make([]float64, 0, n*dim)
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()
		}
		c := centres[i%len(centres)]
		for j, a := range goldenAttrs {
			row[a] = c[j] + rng.NormFloat64()*0.1*float64(1+j%2)
		}
		rows = append(rows, row...)
	}
	var splits []*mr.Split
	for lo := 0; lo < n; lo += splitRows {
		hi := lo + splitRows
		if hi > n {
			hi = n
		}
		splits = append(splits, &mr.Split{ID: len(splits), Offset: lo, Dim: dim, Rows: rows[lo*dim : hi*dim]})
	}
	return splits
}

// goldenFit runs FitMR from a fixed starting mixture and returns the digest
// of the fitted model and its convergence points.
func goldenFit(t *testing.T, cfg mr.Config, splits []*mr.Split) (string, *Model) {
	t.Helper()
	model := initialModel(goldenAttrs, [][]float64{
		{0.3, 0.3, 0.3, 0.6, 0.5}, {0.6, 0.6, 0.7, 0.4, 0.5}, {0.5, 0.7, 0.5, 0.3, 0.7},
	})
	tr := obs.NewMemTracer()
	cfg.Tracer = tr
	engine := mr.NewEngine(cfg)
	run := obs.NewSpanID()
	tr.Begin(obs.Start{ID: run, Kind: obs.KindRun, Name: "em-golden"})
	iters, err := FitMR(engine, splits, model, FitOptions{MaxIterations: 6, Tolerance: 1e-12, TraceParent: run})
	if err != nil {
		t.Fatal(err)
	}
	tr.End(obs.End{ID: run, Kind: obs.KindRun, Name: "em-golden", Outcome: obs.OutcomeOK})
	h := sha256.New()
	put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	binary.Write(h, binary.LittleEndian, int64(iters))
	for _, c := range model.Components {
		put(c.Weight)
		for _, v := range c.Mean {
			put(v)
		}
		d := c.Cov.Rows
		for a := 0; a < d; a++ {
			for b := 0; b <= a; b++ {
				put(c.Cov.At(a, b))
			}
		}
	}
	for _, p := range tr.Points() {
		if p.Kind != obs.PointMetric {
			continue
		}
		h.Write([]byte(p.Name))
		binary.Write(h, binary.LittleEndian, int64(p.Task))
		put(p.Value)
	}
	return hex.EncodeToString(h.Sum(nil)), model
}

// TestFitMRGolden pins the fit to the recorded digest — untouched, under a
// 30% task-failure plan (a retried attempt must carry no buffered rows
// from the failed one), and at a different parallelism.
func TestFitMRGolden(t *testing.T) {
	splits := goldenSplits(1500, 250)
	cfgs := map[string]mr.Config{
		"clean":  {Parallelism: 2},
		"faults": {Parallelism: 2, Faults: mr.UniformFaults(0.3, 5), MaxAttempts: 12},
		"par8":   {Parallelism: 8, NumReducers: 3},
	}
	for name, cfg := range cfgs {
		if got, _ := goldenFit(t, cfg, splits); got != goldenFitDigest {
			t.Errorf("%s: FitMR digest %s, want %s", name, got, goldenFitDigest)
		}
	}
}

// TestFitMRGoldenTinySplits pins the fit over splits smaller than one
// block, so every mapper flushes only a partial block in Cleanup.
func TestFitMRGoldenTinySplits(t *testing.T) {
	splits := goldenSplits(1500, 7)
	for name, cfg := range map[string]mr.Config{
		"clean":  {Parallelism: 2},
		"faults": {Parallelism: 2, Faults: mr.UniformFaults(0.3, 6), MaxAttempts: 12},
	} {
		if got, _ := goldenFit(t, cfg, splits); got != goldenFitTinyDigest {
			t.Errorf("%s: FitMR digest %s, want %s", name, got, goldenFitTinyDigest)
		}
	}
}

// TestFitMRCovariancesBitSymmetric: every covariance FitMR installs is
// exactly symmetric — the scatter's upper triangle is a mirror of its
// lower one, not a separately rounded sum.
func TestFitMRCovariancesBitSymmetric(t *testing.T) {
	_, model := goldenFit(t, mr.Config{Parallelism: 2}, goldenSplits(1500, 250))
	for i, c := range model.Components {
		if err := bitSymmetric(c.Cov); err != "" {
			t.Errorf("component %d: %s", i, err)
		}
	}
}

// bitSymmetric reports the first entry whose mirror differs in any bit.
func bitSymmetric(m *linalg.Matrix) string {
	for a := 0; a < m.Rows; a++ {
		for b := 0; b < a; b++ {
			if math.Float64bits(m.At(a, b)) != math.Float64bits(m.At(b, a)) {
				return fmt.Sprintf("cov[%d][%d] = %#x, its mirror %#x", a, b, math.Float64bits(m.At(a, b)), math.Float64bits(m.At(b, a)))
			}
		}
	}
	return ""
}
