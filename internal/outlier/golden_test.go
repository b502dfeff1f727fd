package outlier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

// goldenDetectDigests pin the robust models and the outlier labels of every
// method to the bit, per split size. They were recorded before the MVB and
// OD mappers moved to the block density path; the 7-row splits are
// smaller than one block.
var goldenDetectDigests = map[int]string{
	300: "3a695a97b6f34dca78f63b383546cd5ceb9eae3c1b67dcbaf8219860a455e5d8",
	7:   "48bf2f4620aa237a73eb5cd261cf9ce2ea0857b8b06b7fc66da65bd75d0f26f8",
}

// goldenOutlierProblem draws three overlapping Gaussian clusters in 4 of 6
// dimensions plus 5% uniform noise, cut into splits of splitRows, and a
// mixture roughly fitted to them (one component with zero weight).
func goldenOutlierProblem(n, splitRows int) ([]*mr.Split, *em.Model) {
	const dim = 6
	attrs := []int{0, 2, 3, 5}
	centres := [][]float64{{0.25, 0.3, 0.6, 0.4}, {0.7, 0.65, 0.3, 0.5}, {0.45, 0.75, 0.75, 0.75}}
	rng := rand.New(rand.NewSource(23))
	rows := make([]float64, 0, n*dim)
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()
		}
		if i%20 != 0 {
			c := centres[i%len(centres)]
			for j, a := range attrs {
				row[a] = c[j] + rng.NormFloat64()*0.05
			}
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
	model := &em.Model{Attrs: attrs}
	for i, c := range centres {
		cov := linalg.Identity(len(attrs))
		linalg.Scale(cov, 0.004, cov)
		cov.Set(1, 0, 0.001)
		cov.Set(0, 1, 0.001)
		model.Components = append(model.Components, &em.Component{Weight: 0.3 + 0.05*float64(i), Mean: c, Cov: cov})
	}
	model.Components = append(model.Components, &em.Component{
		Weight: 0, Mean: []float64{0.5, 0.5, 0.5, 0.5}, Cov: linalg.Identity(len(attrs)),
	})
	return splits, model
}

// detectDigest hashes the MVB and MVE robust models and the labels of all
// three methods.
func detectDigest(t *testing.T, cfg mr.Config, splitRows int) string {
	t.Helper()
	const n = 1800
	h := sha256.New()
	put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	hashModel := func(m *em.Model) {
		for _, c := range m.Components {
			put(c.Weight)
			for _, v := range c.Mean {
				put(v)
			}
			for a := 0; a < c.Cov.Rows; a++ {
				for b := 0; b <= a; b++ {
					put(c.Cov.At(a, b))
				}
			}
		}
	}
	splits, model := goldenOutlierProblem(n, splitRows)
	engine := mr.NewEngine(cfg)
	robust, err := robustModel(engine, splits, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashModel(robust)
	mve, err := mveModel(engine, splits, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashModel(mve)
	for _, method := range []Method{Naive, MVB, MVE} {
		labels, err := Detect(engine, splits, model, n, method, 0.001, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range labels {
			binary.Write(h, binary.LittleEndian, int64(l))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDetectGolden pins the robust estimators and the OD labels, clean and
// under a 30% task-failure plan.
func TestDetectGolden(t *testing.T) {
	for splitRows, want := range goldenDetectDigests {
		for name, cfg := range map[string]mr.Config{
			"clean":  {Parallelism: 2},
			"faults": {Parallelism: 2, Faults: mr.UniformFaults(0.3, 9), MaxAttempts: 12},
		} {
			if got := detectDigest(t, cfg, splitRows); got != want {
				t.Errorf("splits of %d rows, %s: digest %s, want %s", splitRows, name, got, want)
			}
		}
	}
}

// TestRobustModelCovariancesBitSymmetric: every covariance the MVB robust
// model installs is exactly symmetric.
func TestRobustModelCovariancesBitSymmetric(t *testing.T) {
	splits, model := goldenOutlierProblem(1800, 300)
	robust, err := robustModel(mr.NewEngine(mr.Config{Parallelism: 2}), splits, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range robust.Components {
		for a := 0; a < c.Cov.Rows; a++ {
			for b := 0; b < a; b++ {
				if math.Float64bits(c.Cov.At(a, b)) != math.Float64bits(c.Cov.At(b, a)) {
					t.Fatalf("component %d: cov[%d][%d] = %g differs from its mirror %g", i, a, b, c.Cov.At(a, b), c.Cov.At(b, a))
				}
			}
		}
	}
}
