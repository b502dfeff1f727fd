package main

import (
	"math/rand"
	"sort"

	"p3cmr"
	"p3cmr/internal/dataset"
)

// workload is one input shape and pipeline variant. Every workload has 5
// hidden clusters, 10% uniform noise and two clusters overlapping on a
// shared attribute (see generate).
type workload struct {
	name string
	algo p3cmr.Algorithm
	n    int
	dim  int
	// why records the reason the workload is in the benchmark; it is
	// repeated in BENCHMARK.json.
	why string
}

var workloads = []workload{
	{
		name: "mvb-200k", algo: p3cmr.P3CPlusMR, n: 200000, dim: 20,
		why: "full P3C+-MR (EM + MVB outliers) on 200000 x 20, generator seed 1, rows shuffled by --seed; the only workload that runs em, linalg and outlier",
	},
	{
		name: "light-200k", algo: p3cmr.P3CPlusMRLight, n: 200000, dim: 20,
		why: "P3C+-MR-Light on the same 200000 x 20 data, rows shuffled by --seed; core generation and redundancy filter dominate; control for em and linalg work",
	},
	{
		name: "light-wide", algo: p3cmr.P3CPlusMRLight, n: 100000, dim: 100,
		why: "P3C+-MR-Light on 100000 x 100, generator seed 1, rows shuffled by --seed; 5x the attributes, largest candidate lattice, 80 MB input, heaviest setup",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dataSeed is the generator seed of every workload's data set. A fresh
// generator draw changes the clustering problem itself: on mvb-200k the EM
// iteration count, the relevant attributes the EM runs in and which
// overlapping clusters separate vary from draw to draw, moving run time by
// 15% and E4SC from 0.75 to 0.95. Renumbering the attributes does the same
// through the level cap of candidate generation. Those are properties of
// the draw, not of the code, so the draw is part of the workload and the
// --seed argument only shuffles its rows (see generate).
const dataSeed = 1

// generate builds the workload's input for one seed: the data set
// dataset.Generate draws at dataSeed, with its rows shuffled by a
// permutation drawn from seed. Every seed thus poses the same clustering
// problem in a different input file, with other split contents and another
// floating-point summation order.
func (w workload) generate(seed int64) (*dataset.Dataset, *dataset.GroundTruth, error) {
	base, baseTruth, err := dataset.Generate(dataset.GenConfig{
		N: w.n, Dim: w.dim, Clusters: 5, NoiseFraction: 0.1, Overlap: true, Seed: dataSeed,
	})
	if err != nil {
		return nil, nil, err
	}
	rowTo := rand.New(rand.NewSource(seed)).Perm(w.n)
	data := dataset.FromRows(w.dim, make([]float64, w.n*w.dim))
	for i, to := range rowTo {
		copy(data.Row(to), base.Row(i))
	}
	truth := &dataset.GroundTruth{N: w.n, Dim: w.dim, Noise: remap(baseTruth.Noise, rowTo)}
	for _, tc := range baseTruth.Clusters {
		truth.Clusters = append(truth.Clusters, &dataset.TrueCluster{
			Members: remap(tc.Members, rowTo), Attrs: tc.Attrs, Lo: tc.Lo, Hi: tc.Hi,
		})
	}
	return data, truth, nil
}

// remap returns the ascending images of the row indices xs under rowTo.
func remap(xs, rowTo []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = rowTo[x]
	}
	sort.Ints(out)
	return out
}

// full reports whether the workload runs the EM and outlier phases.
func (w workload) full() bool { return w.algo == p3cmr.P3CPlusMR }
