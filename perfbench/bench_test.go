package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, nameRE)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("metric %s: better = %q", m.name, m.better)
			}
			if seen[m.name] {
				t.Errorf("metric %s declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, name := range absentOn(workloads[0]) {
		if !seen[name] {
			t.Errorf("absent metric %s is not declared", name)
		}
	}
	for _, name := range phaseMetric {
		if !seen[name] {
			t.Errorf("phase metric %s is not declared", name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, got, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, withBound bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			w := metric{Name: m.name, Unit: m.unit, Better: m.better}
			if withBound {
				w.Bound = m.bound
			}
			if got[i] != w {
				t.Errorf("%s %d: BENCHMARK.json has %+v, want %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// smallRun clusters a scaled-down copy of each workload in this process: the
// untraced, traced and Parallelism-1 clusterings an invocation makes.
func smallRun(t *testing.T, w workload) []sample {
	t.Helper()
	w.n = 4000
	if w.dim > 20 {
		w.n = 2000
	}
	dir := t.TempDir()
	a := childArgs{workload: w, dataPath: filepath.Join(dir, "data.bin"), truthPath: filepath.Join(dir, "truth.txt"), parallelism: 2}
	if err := writeInput(w, 7, a.dataPath, a.truthPath); err != nil {
		t.Fatal(err)
	}
	var out []sample
	add := func(kind string, a childArgs) {
		rep := runChild(a)
		if rep.Err != "" {
			t.Fatalf("%s %s: %s", w.name, kind, rep.Err)
		}
		out = append(out, sample{kind: kind, rep: rep, rssMB: 100})
	}
	for i := 0; i < 2; i++ {
		add("untraced", a)
	}
	p1 := a
	p1.parallelism = 1
	add("p1", p1)
	tr := a
	tr.traced = true
	add("traced", tr)
	return out
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("clusters three data sets")
	}
	for _, w := range workloads {
		samples := smallRun(t, w)
		for _, traced := range []bool{false, true} {
			in := samples
			want := perLayer
			if !traced {
				in = samples[:2]
				want = endToEnd
			}
			o, err := summarize(w, 7, traced, 2, append([]sample(nil), in...))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !o.Correct || o.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d", w.name, traced, o.Correct, o.Failed)
			}
			for _, m := range want {
				got, ok := o.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(o.Metrics), len(want))
			}
		}
	}
}

func fakeSamples() []sample {
	rep := childReport{RunS: 1, SetupS: 0.1, CPUS: 2, AllocMB: 10, E4SC: 0.9, Digest: "aa", EMIterations: 2,
		Layer: map[string]float64{}}
	for _, m := range perLayer {
		rep.Layer[m.name] = 1
	}
	var out []sample
	for _, kind := range []string{"traced", "p1", "untraced", "untraced", "untraced"} {
		out = append(out, sample{kind: kind, rep: rep, rssMB: 50})
	}
	return out
}

func TestCorruptedDigestShowsInErrorRate(t *testing.T) {
	w := workloads[0]
	o, err := summarize(w, 1, true, 2, fakeSamples())
	if err != nil {
		t.Fatal(err)
	}
	if !o.Correct || o.Metrics["error_rate"].Value != 0 {
		t.Fatalf("clean samples: correct=%v error_rate=%v", o.Correct, o.Metrics["error_rate"].Value)
	}
	for _, corrupt := range []int{0, 3} { // the traced clustering, an untraced one
		samples := fakeSamples()
		samples[corrupt].rep.Digest = "bb"
		o, err := summarize(w, 1, true, 2, samples)
		if err != nil {
			t.Fatal(err)
		}
		if o.Correct || o.Failed != 1 || o.Metrics["error_rate"].Value != 0.2 {
			t.Errorf("corrupted digest in sample %d: correct=%v failed=%d error_rate=%v",
				corrupt, o.Correct, o.Failed, o.Metrics["error_rate"].Value)
		}
	}
	samples := fakeSamples()[2:]
	samples[1].rep.Digest = "bb"
	o, err = summarize(w, 1, false, 2, samples)
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct || o.Failed != 1 || o.Attempted != 3 {
		t.Errorf("untraced: corrupted digest gave correct=%v failed=%d attempted=%d", o.Correct, o.Failed, o.Attempted)
	}
}

// TestGenerateKeepsClustersAcrossSeeds checks that every seed's input holds
// the same clusters: each member lies inside its cluster's intervals after
// the rows are shuffled.
func TestGenerateKeepsClustersAcrossSeeds(t *testing.T) {
	w := workloads[0]
	w.n = 3000
	var sizes [][]int
	for _, seed := range []int64{1, 2} {
		data, truth, err := w.generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for c, tc := range truth.Clusters {
			got = append(got, len(tc.Members), len(tc.Attrs))
			for _, m := range tc.Members {
				for j, a := range tc.Attrs {
					if v := data.Row(m)[a]; v < tc.Lo[j] || v > tc.Hi[j] {
						t.Fatalf("seed %d: member %d of cluster %d has %v on attribute %d, outside [%v,%v]",
							seed, m, c, v, a, tc.Lo[j], tc.Hi[j])
					}
				}
			}
		}
		sizes = append(sizes, append(got, len(truth.Noise)))
	}
	if fmt.Sprint(sizes[0]) != fmt.Sprint(sizes[1]) {
		t.Errorf("cluster sizes differ between seeds: %v vs %v", sizes[0], sizes[1])
	}
}
