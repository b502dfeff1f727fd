package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p3cmr/internal/dataset"
	"p3cmr/internal/obs"
)

const (
	// workRoot holds each invocation's generated input; it is inside the
	// build directory the benchmark already owns.
	workRoot = ".bench_build/perfbench"
	// deadline bounds a whole invocation, children included.
	deadline = 170 * time.Second
	// minUntraced is the fewest untraced clusterings an invocation makes.
	minUntraced = 3
)

// sample is one child clustering as the parent saw it.
type sample struct {
	kind  string // "untraced", "traced" or "p1"
	rep   childReport
	rssMB float64
	err   error
	// mismatch marks a clustering that ran but whose output digest differs
	// from the one the other clusterings agree on.
	mismatch bool
}

type bencher struct {
	w         workload
	exe       string
	dataPath  string
	truthPath string
	ctx       context.Context
	samples   []sample
}

// bench generates the workload's input from seed, then runs clusterings in
// child processes for the given number of seconds. It starts no clustering
// that would end past the budget, judged by the previous one's length,
// once it has minUntraced untraced ones.
func bench(w workload, seed int64, seconds float64, traced bool) (*output, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bencher{w: w, exe: exe, ctx: ctx,
		dataPath: filepath.Join(dir, "data.bin"), truthPath: filepath.Join(dir, "truth.txt")}
	if err := writeInput(w, seed, b.dataPath, b.truthPath); err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	budget := time.Duration(seconds * float64(time.Second))
	start := obs.Now()
	if traced {
		b.spawn("traced", nproc, true)
		b.spawn("p1", 1, false)
	}
	for untraced := 1; ctx.Err() == nil; untraced++ {
		t0 := obs.Now()
		b.spawn("untraced", nproc, false)
		if untraced >= minUntraced && obs.Since(start)+obs.Since(t0) > budget {
			break
		}
	}
	return summarize(w, seed, traced, nproc, b.samples)
}

// spawn runs one clustering in a child process and records it.
func (b *bencher) spawn(kind string, parallelism int, traced bool) {
	args := []string{"-child", "-workload", b.w.name, "-data", b.dataPath, "-truth", b.truthPath,
		"-parallelism", strconv.Itoa(parallelism)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(b.ctx, b.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	s := sample{kind: kind}
	err := cmd.Run()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
		}
	}
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s clustering: %v: %s", kind, err, strings.TrimSpace(stderr.String()))
	case json.Unmarshal(stdout.Bytes(), &s.rep) != nil:
		s.err = fmt.Errorf("%s clustering: unreadable report %q", kind, stdout.String())
	case s.rep.Err != "":
		s.err = fmt.Errorf("%s clustering: %s", kind, s.rep.Err)
	}
	b.samples = append(b.samples, s)
}

func writeInput(w workload, seed int64, dataPath, truthPath string) error {
	data, truth, err := w.generate(seed)
	if err != nil {
		return err
	}
	if err := writeFile(dataPath, data.WriteBinary); err != nil {
		return err
	}
	return writeFile(truthPath, func(w io.Writer) error { return dataset.WriteGroundTruth(w, truth) })
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the invocation's result: the JSON object printed last, and the
// human-readable lines before it.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	lines     []string
}

func (o *output) print(w io.Writer) {
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	enc, _ := json.Marshal(o) // only finite numbers reach here; see summarize
	fmt.Fprintln(w, string(enc))
}

func (o *output) linef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// checkSamples marks every sample that failed or whose output differs from
// the digest most samples agree on, and returns the failure count and the
// agreed digest. Failures are never dropped from the count.
func checkSamples(samples []sample) (failed int, ref string) {
	votes := map[string]int{}
	for _, s := range samples {
		if s.err == nil {
			votes[s.rep.Digest]++
		}
	}
	for d, v := range votes {
		if v > votes[ref] || (v == votes[ref] && d < ref) {
			ref = d
		}
	}
	for i := range samples {
		s := &samples[i]
		s.mismatch = s.err == nil && s.rep.Digest != ref
		if s.err != nil || s.mismatch {
			failed++
		}
	}
	return failed, ref
}

func summarize(w workload, seed int64, traced bool, nproc int, samples []sample) (*output, error) {
	o := &output{Attempted: len(samples), Metrics: map[string]metricValue{}}
	var ref string
	o.Failed, ref = checkSamples(samples)
	o.Correct = o.Failed == 0
	mode := map[bool]string{false: "0 (end-to-end, tracing off)", true: "1 (per-layer)"}[traced]
	o.linef("# perfbench workload=%s algo=%q shape=%dx%d seed=%d trace=%s", w.name, w.algo.String(), w.n, w.dim, seed, mode)
	o.linef("# host nproc=%d GOMAXPROCS=%d cpu=%q go=%s (cross-host comparisons are reported, not gated)",
		nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	// ran holds every clustering that finished; only those with the agreed
	// digest count towards the end-to-end medians.
	ran := map[string][]childReport{}
	var untraced []childReport
	var rss []float64
	for _, s := range samples {
		switch {
		case s.err != nil:
			o.linef("# FAILED %v", s.err)
			continue
		case s.mismatch:
			o.linef("# FAILED %s clustering: output digest %.12s differs from %.12s", s.kind, s.rep.Digest, ref)
		case s.kind == "untraced":
			untraced = append(untraced, s.rep)
			rss = append(rss, s.rssMB)
		}
		ran[s.kind] = append(ran[s.kind], s.rep)
	}
	if len(untraced) == 0 {
		return nil, fmt.Errorf("no untraced clustering succeeded (%d of %d failed)", o.Failed, o.Attempted)
	}
	runS := pick(untraced, func(r childReport) float64 { return r.RunS })
	o.linef("# error_rate %.4f (%d failed of %d clusterings)", float64(o.Failed)/float64(o.Attempted), o.Failed, o.Attempted)
	if !traced {
		o.set("run_s", median(runS))
		o.set("points_per_s", float64(w.n)/median(runS))
		o.set("setup_s", median(pick(untraced, func(r childReport) float64 { return r.SetupS })))
		o.set("cpu_s", median(pick(untraced, func(r childReport) float64 { return r.CPUS })))
		o.set("peak_rss_mb", median(rss))
		o.set("alloc_mb", median(pick(untraced, func(r childReport) float64 { return r.AllocMB })))
		o.set("e4sc", untraced[0].E4SC)
		o.linef("# run_s samples %s", formatList(runS))
		o.linef("# run_s_tail %s", tailText(runS))
	} else {
		if err := o.setLayers(w, nproc, ran, untraced, median(runS)); err != nil {
			return nil, err
		}
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		v, ok := o.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v.Value)
		}
		o.linef("%-28s %14.6g %s", m.name, v.Value, m.unit)
	}
	if len(o.Metrics) != len(want) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(o.Metrics), len(want))
	}
	return o, nil
}

// setLayers fills the per-layer metrics from the traced clustering, the
// Parallelism-1 clustering and the untraced ones.
func (o *output) setLayers(w workload, nproc int, ran map[string][]childReport, untraced []childReport, runS float64) error {
	if len(ran["traced"]) != 1 || len(ran["p1"]) != 1 {
		return fmt.Errorf("the traced or the Parallelism-1 clustering did not finish")
	}
	tr, p1 := ran["traced"][0], ran["p1"][0]
	for name, v := range tr.Layer {
		o.set(name, v)
	}
	o.set("core.jobs", float64(tr.Jobs))
	o.set("core.candidates_tested", float64(tr.Candidates))
	o.set("core.cores", float64(tr.Cores))
	o.set("core.levels_truncated", float64(tr.Truncated))
	o.set("outlier.outliers", float64(tr.Outliers))
	o.set("runtime.gc_cycles", median(pick(untraced, func(r childReport) float64 { return float64(r.GCCycles) })))
	o.set("mr.p1_run_s", p1.RunS)
	o.set("mr.parallel_efficiency", p1.RunS/(float64(nproc)*runS))
	o.set("obs.trace_overhead_frac", tr.RunS/runS-1)
	o.set("error_rate", float64(o.Failed)/float64(o.Attempted))
	absent := absentOn(w)
	if w.full() {
		if tr.EMIterations == 0 {
			return fmt.Errorf("the full pipeline ran no EM iteration")
		}
		o.set("em.iterations", float64(tr.EMIterations))
		o.set("em.iteration_s", tr.Layer["core.em_s"]/float64(tr.EMIterations))
	}
	for _, name := range absent {
		o.set(name, 0)
	}
	o.linef("# absent (reported as 0): %s", strings.Join(absent, " "))
	o.linef("# traced run_s %.4f, untraced median %.4f, Parallelism-1 run_s %.4f", tr.RunS, runS, p1.RunS)
	return nil
}

// set records a metric with its declared unit. An undeclared name gets no
// unit and makes summarize reject the output by the metric count.
func (o *output) set(name string, v float64) {
	unit := ""
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.name == name {
			unit = m.unit
		}
	}
	o.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func pick(reps []childReport, f func(childReport) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tailText reports the highest percentile of xs with at least ten samples
// beyond it, or why there is none.
func tailText(xs []float64) string {
	n := len(xs)
	if n < 11 {
		return fmt.Sprintf("n/a: %d samples, a tail with ten samples beyond it needs at least 11", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11 // s[i] has exactly ten samples above it
	return fmt.Sprintf("%.4f s (p%.0f of %d samples, 10 beyond it)", s[i], 100*float64(i+1)/float64(n), n)
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
