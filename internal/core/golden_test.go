package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// goldenPipelineDigest pins the full P3C+-MR pipeline (EM initialization,
// EM, MVB outlier detection) to the bit: labels, tightened signatures and
// every EM convergence point. It was recorded before the mixture-density
// and scatter kernels were blocked.
const goldenPipelineDigest = "6f7abe4180ec4b52805e0935c626f46d979ca3e3ffa68d41d721610454961c3e"

func TestFullPipelineGolden(t *testing.T) {
	data, _ := genData(t, 2000, 10, 3, 0.05, 99)
	tr := obs.NewMemTracer()
	params := NewParams()
	params.NumSplits = 8
	res, err := Run(mr.NewEngine(mr.Config{Parallelism: 2, Tracer: tr}), data, params)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, l := range res.Labels {
		binary.Write(h, binary.LittleEndian, int64(l))
	}
	for _, s := range res.Signatures {
		fmt.Fprintf(h, "%d:", s.ClusterID)
		for _, iv := range s.Intervals {
			fmt.Fprintf(h, "%d[%x,%x]", iv.Attr, math.Float64bits(iv.Lo), math.Float64bits(iv.Hi))
		}
	}
	points := 0
	for _, p := range tr.Points() {
		if p.Kind != obs.PointMetric || len(p.Name) < 3 || p.Name[:3] != "em_" {
			continue
		}
		points++
		fmt.Fprintf(h, "%s/%d=%x;", p.Name, p.Task, math.Float64bits(p.Value))
	}
	if points == 0 {
		t.Fatal("no EM convergence points recorded")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPipelineDigest {
		t.Errorf("pipeline digest %s, want %s", got, goldenPipelineDigest)
	}
}

// TestEMInitCovariancesBitSymmetric: both passes of the EM initialization
// install exactly symmetric covariances.
func TestEMInitCovariancesBitSymmetric(t *testing.T) {
	data, _ := genData(t, 2000, 10, 3, 0.05, 99)
	params := NewParams()
	params.NumSplits = 8
	engine := mr.NewEngine(mr.Config{Parallelism: 2})
	res, err := Run(engine, data, params)
	if err != nil {
		t.Fatal(err)
	}
	model, err := initEMModel(engine, data.Splits(8), res.Cores, data.N(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range model.Components {
		for a := 0; a < c.Cov.Rows; a++ {
			for b := 0; b < a; b++ {
				if math.Float64bits(c.Cov.At(a, b)) != math.Float64bits(c.Cov.At(b, a)) {
					t.Fatalf("component %d: cov[%d][%d] = %g differs from its mirror %g", i, a, b, c.Cov.At(a, b), c.Cov.At(b, a))
				}
			}
		}
	}
}
