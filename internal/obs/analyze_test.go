package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestParseTraceOutOfOrderMerge pins the merge semantics of parseTrace on
// traces whose lines arrive out of causal order — the shape a flight-recorder
// dump produces (evicted critical ends precede the ring window) and a
// multiprocess merge can produce (a worker step's begin lands after a point
// on it). Regression: begins used to *replace* an end-synthesized span,
// dropping its outcome and re-detaching it, and points preceding their
// span's begin were silently dropped.
func TestParseTraceOutOfOrderMerge(t *testing.T) {
	// Lines deliberately scrambled: the task end (id 3) precedes its begin;
	// the sample point on span 3 precedes span 3's begin; the step span (4)
	// under the task arrives begin-last.
	trace := strings.TrimSpace(`
{"ev":"begin","ts":0,"id":1,"kind":"run","name":"r"}
{"ev":"begin","ts":0.1,"id":2,"parent":1,"kind":"job","name":"j"}
{"ev":"end","ts":0.9,"id":3,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map","outcome":"fault","real_s":0.7,"worker":"w1"}
{"ev":"point","ts":0.5,"span":3,"point":"sample","worker":"w1","sample":{"cpu_s":1.5,"rss_b":1024,"spill_b":10,"queue_b":2}}
{"ev":"point","ts":0.6,"span":3,"point":"sample","worker":"w1","sample":{"cpu_s":1.6,"rss_b":2048,"spill_b":20,"queue_b":4}}
{"ev":"end","ts":0.8,"id":4,"parent":3,"kind":"step","name":"map-exec","phase":"map","outcome":"fault","real_s":0.5,"worker":"w1"}
{"ev":"begin","ts":0.3,"id":4,"parent":3,"kind":"step","name":"map-exec","phase":"map"}
{"ev":"begin","ts":0.2,"id":3,"parent":2,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map"}
{"ev":"end","ts":1.0,"id":2,"kind":"job","name":"j","outcome":"ok","real_s":0.9}
{"ev":"end","ts":1.1,"id":1,"kind":"run","name":"r","outcome":"ok","real_s":1.1}
`) + "\n"

	spans, roots, events, err := parseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if events != 10 {
		t.Errorf("parsed %d events, want 10", events)
	}
	if len(roots) != 1 {
		names := make([]string, 0, len(roots))
		for _, r := range roots {
			names = append(names, r.kind+":"+r.name)
		}
		t.Fatalf("got %d roots (%v), want 1 — out-of-order spans polluted the detached bucket", len(roots), names)
	}

	task := spans[3]
	if task.parent != 2 || !task.closed || task.outcome != "fault" || task.worker != "w1" {
		t.Errorf("task span lost data across out-of-order merge: %+v", task)
	}
	if task.beginTS != 0.2 {
		t.Errorf("task beginTS = %g, want the begin line's 0.2", task.beginTS)
	}
	if len(task.points) != 2 {
		t.Fatalf("task has %d points, want 2 — points before their span's begin were dropped", len(task.points))
	}
	step := spans[4]
	if step.parent != 3 || step.kind != "step" || !step.closed || step.outcome != "fault" {
		t.Errorf("step span lost data across out-of-order merge: %+v", step)
	}

	// The analysis over this trace must see the telemetry: worker step
	// seconds, samples with peaks, and a computed utilization.
	a := analyze(spans, roots, events, 5)
	if len(a.Runs) != 1 {
		t.Fatalf("got %d runs", len(a.Runs))
	}
	run := a.Runs[0]
	if len(run.Workers) != 1 {
		t.Fatalf("got %d worker rows, want 1", len(run.Workers))
	}
	w := run.Workers[0]
	if w.Worker != "w1" || w.Attempts != 1 || w.Faults != 1 {
		t.Errorf("worker row = %+v", w)
	}
	if w.Samples != 2 || w.PeakRSSBytes != 2048 || w.PeakQueueBytes != 4 || w.SpillBytes != 20 {
		t.Errorf("sample aggregation wrong: %+v", w)
	}
	if w.CPUSeconds != 1.6 {
		t.Errorf("worker CPU = %g, want last sample's 1.6", w.CPUSeconds)
	}
	// ΔCPU/Δwall = (1.6-1.5)/(0.6-0.5) = 1.0
	if w.Utilization < 0.999 || w.Utilization > 1.001 {
		t.Errorf("utilization = %g, want 1.0", w.Utilization)
	}
	if got := w.StepSeconds["map-exec"]; got != 0.5 {
		t.Errorf("step seconds = %g, want 0.5", got)
	}
	// The step span must not count as a task attempt.
	if run.TaskAttempts != 1 {
		t.Errorf("run counts %d task attempts, want 1 (steps must not count)", run.TaskAttempts)
	}
}

// TestConvergenceSeries pins the metric-point path end to end through the analyzer:
// PointMetric events survive the JSONL round trip with their values, fold
// into per-name iteration series, render as a convergence table, and show
// up in the -json payload.
func TestConvergenceSeries(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	run := NewSpanID()
	tr.Begin(Start{ID: run, Kind: KindRun, Name: "conv"})
	phase := NewSpanID()
	tr.Begin(Start{ID: phase, Parent: run, Kind: KindPhase, Name: "em"})
	lls := []float64{-52.5, -44.125, -41.0625, -40.5}
	for it, ll := range lls {
		tr.Point(Point{Span: phase, Kind: PointMetric, Name: "em_log_likelihood", Task: it, Value: ll})
		tr.Point(Point{Span: phase, Kind: PointMetric, Name: "em_active_clusters", Task: it, Value: 3})
	}
	tr.End(End{ID: phase, Kind: KindPhase, Name: "em", RealSeconds: 1})
	tr.End(End{ID: run, Kind: KindRun, Name: "conv", RealSeconds: 1, Outcome: OutcomeOK})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	spans, roots, events, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(spans, roots, events, 5)
	if len(a.Runs) != 1 {
		t.Fatalf("got %d runs", len(a.Runs))
	}
	conv := a.Runs[0].Convergence
	if len(conv) != 2 {
		t.Fatalf("got %d convergence rows, want 2: %+v", len(conv), conv)
	}
	if conv[0].Name != "em_active_clusters" || conv[1].Name != "em_log_likelihood" {
		t.Fatalf("rows not name-sorted: %q, %q", conv[0].Name, conv[1].Name)
	}
	ll := conv[1]
	if len(ll.Points) != len(lls) {
		t.Fatalf("log-likelihood series has %d points, want %d", len(ll.Points), len(lls))
	}
	for i, p := range ll.Points {
		if p.Iter != i || p.Value != lls[i] {
			t.Errorf("point %d = {%d, %v}, want {%d, %v}", i, p.Iter, p.Value, i, lls[i])
		}
	}

	var txt bytes.Buffer
	if err := a.WriteText(&txt, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "convergence") ||
		!strings.Contains(txt.String(), "em_log_likelihood") {
		t.Errorf("text output lacks the convergence table:\n%s", txt.String())
	}
	// The sparkline of a strictly improving series starts at the bottom
	// ramp level and ends at the top.
	spark := sparkline(ll.Points)
	runes := []rune(spark)
	if runes[0] != sparkChars[0] || runes[len(runes)-1] != sparkChars[len(sparkChars)-1] {
		t.Errorf("sparkline %q does not span the ramp", spark)
	}
	if flat := sparkline(conv[0].Points); strings.Trim(flat, string(sparkChars[len(sparkChars)/2])) != "" {
		t.Errorf("flat series sparkline %q not mid-level", flat)
	}

	// -json carries the same series.
	payload, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Runs []struct {
			Convergence []ConvergenceRow `json:"convergence"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Runs) != 1 || len(decoded.Runs[0].Convergence) != 2 {
		t.Fatalf("-json payload lost the convergence section: %s", payload)
	}
}

// TestAnalyzeReportSpanStream renders the report of a hand-built span
// stream: a run with one phase holding one job whose task 0 faulted once
// and then succeeded.
func TestAnalyzeReportSpanStream(t *testing.T) {
	var buf bytes.Buffer
	r := NewJSONLTracer(&buf)
	run, phase, job := NewSpanID(), NewSpanID(), NewSpanID()
	r.Begin(Start{ID: run, Kind: KindRun, Name: "r"})
	r.Begin(Start{ID: phase, Parent: run, Kind: KindPhase, Name: "histograms"})
	r.Begin(Start{ID: job, Parent: phase, Kind: KindJob, Name: "histo-job"})
	// Two attempts of task 0: one faulted, one succeeded.
	t0a, t0b := NewSpanID(), NewSpanID()
	r.Begin(Start{ID: t0a, Parent: job, Kind: KindTask, Name: "histo-job", Task: 0, Phase: "map"})
	r.End(End{ID: t0a, Kind: KindTask, Name: "histo-job", Task: 0, Phase: "map",
		Outcome: OutcomeFault, Wasted: Counters{MapInputRecords: 50}})
	r.Begin(Start{ID: t0b, Parent: job, Kind: KindTask, Name: "histo-job", Task: 0, Attempt: 1, Phase: "map"})
	r.End(End{ID: t0b, Kind: KindTask, Name: "histo-job", Task: 0, Attempt: 1, Phase: "map", Outcome: OutcomeOK})
	r.End(End{ID: job, Kind: KindJob, Name: "histo-job", Outcome: OutcomeOK,
		Counters: Counters{MapInputRecords: 100, OutputRecords: 10, TaskRetries: 1},
		Wasted:   Counters{MapInputRecords: 50}, Retries: 1, SimulatedSeconds: 8})
	r.End(End{ID: phase, Kind: KindPhase, Name: "histograms", Counters: Counters{MapInputRecords: 100}, Retries: 1, SimulatedSeconds: 8})
	r.End(End{ID: run, Kind: KindRun, Name: "r"})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := AnalyzeTrace(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 1 || len(a.Runs[0].Jobs) != 1 {
		t.Fatalf("want one run with one job row, got %+v", a.Runs)
	}
	var out bytes.Buffer
	if err := a.WriteText(&out, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1 jobs", "2 task attempts", "1 faulted", "1 retries", "50 wasted records",
		"histograms", "histo-job",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestParseTraceRejectsParentCycles pins that a span whose parent chain
// never reaches a root is an error naming the span, not a silently empty
// analysis.
func TestParseTraceRejectsParentCycles(t *testing.T) {
	for name, trace := range map[string]string{
		"self-parented": `{"ev":"begin","ts":0,"id":1,"parent":1,"kind":"run","name":"r"}
{"ev":"end","ts":1,"id":1,"kind":"run","name":"r","outcome":"ok","real_s":1}
`,
		"two-span cycle": `{"ev":"begin","ts":0,"id":1,"kind":"run","name":"r"}
{"ev":"begin","ts":0,"id":2,"parent":3,"kind":"phase","name":"p"}
{"ev":"begin","ts":0,"id":3,"parent":2,"kind":"job","name":"j"}
{"ev":"end","ts":1,"id":3,"kind":"job","name":"j","outcome":"ok","real_s":1}
{"ev":"end","ts":1,"id":2,"kind":"phase","name":"p","outcome":"ok","real_s":1}
{"ev":"end","ts":1,"id":1,"kind":"run","name":"r","outcome":"ok","real_s":1}
`,
	} {
		want := "span 1:"
		if name == "two-span cycle" {
			want = "span 2:"
		}
		_, err := AnalyzeTrace(strings.NewReader(trace), 5)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, want)
		}
	}
}

// TestAnalyzeCriticalPathWalksBack pins the span-tree critical path
// on a hand-built run: three sequential phases, the middle one holding a
// job whose map tasks overlap. Every phase is on the path, the overlapping
// task that finished first is skipped, and self seconds sum to the run's
// wall time.
func TestAnalyzeCriticalPathWalksBack(t *testing.T) {
	trace := `{"ev":"begin","ts":0,"id":1,"kind":"run","name":"r"}
{"ev":"begin","ts":0.1,"id":2,"parent":1,"kind":"phase","name":"a"}
{"ev":"end","ts":1.1,"id":2,"kind":"phase","name":"a","outcome":"ok","real_s":1}
{"ev":"begin","ts":1.2,"id":3,"parent":1,"kind":"phase","name":"b"}
{"ev":"begin","ts":1.2,"id":4,"parent":3,"kind":"job","name":"j"}
{"ev":"begin","ts":1.2,"id":5,"parent":4,"kind":"task","name":"j","task":0,"phase":"map"}
{"ev":"begin","ts":1.3,"id":6,"parent":4,"kind":"task","name":"j","task":1,"phase":"map"}
{"ev":"end","ts":1.7,"id":5,"kind":"task","name":"j","task":0,"phase":"map","outcome":"ok","real_s":0.5}
{"ev":"end","ts":2.2,"id":6,"kind":"task","name":"j","task":1,"phase":"map","outcome":"ok","real_s":0.9}
{"ev":"begin","ts":2.3,"id":7,"parent":4,"kind":"task","name":"j","task":0,"phase":"reduce"}
{"ev":"end","ts":2.8,"id":7,"kind":"task","name":"j","task":0,"phase":"reduce","outcome":"ok","real_s":0.5}
{"ev":"end","ts":2.9,"id":4,"kind":"job","name":"j","outcome":"ok","real_s":1.7}
{"ev":"end","ts":3,"id":3,"kind":"phase","name":"b","outcome":"ok","real_s":1.8}
{"ev":"begin","ts":3,"id":8,"parent":1,"kind":"phase","name":"c"}
{"ev":"end","ts":3.5,"id":8,"kind":"phase","name":"c","outcome":"ok","real_s":0.5}
{"ev":"end","ts":3.6,"id":1,"kind":"run","name":"r","outcome":"ok","real_s":3.6}
`
	a, err := AnalyzeTrace(strings.NewReader(trace), 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	sum := 0.0
	for _, s := range a.Runs[0].CriticalPath {
		got = append(got, strings.Repeat(" ", s.Depth)+s.Name+s.Task)
		sum += s.SelfSeconds
		if s.SelfSeconds < 0 {
			t.Errorf("step %s has negative self time %g", s.Name, s.SelfSeconds)
		}
	}
	want := []string{"r", " a", " b", "  j", "   j1.0", "   j0.0", " c"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("critical path = %q, want %q", got, want)
	}
	if d := sum - 3.6; d > 1e-9 || d < -1e-9 {
		t.Errorf("self seconds sum to %g, want the run's 3.6", sum)
	}
	// The run's own time is what its three phases leave uncovered.
	if self := a.Runs[0].CriticalPath[0].SelfSeconds; self < 0.3-1e-9 || self > 0.3+1e-9 {
		t.Errorf("run self = %g, want 3.6 - (1 + 1.8 + 0.5) = 0.3", self)
	}
}
