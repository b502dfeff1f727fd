package main

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// TestAnalyzeReconcilesWithLiveSinks is the p3ctrace oracle: it traces a
// chaos-plan pipeline through two sinks at once — a JSONL trace (what
// p3ctrace and p3crun -report analyze) and a MemTracer (ground-truth span
// log) — and asserts the analysis agrees with the live view event for
// event.
func TestAnalyzeReconcilesWithLiveSinks(t *testing.T) {
	data, _, err := dataset.Generate(dataset.GenConfig{N: 2000, Dim: 12, Clusters: 3, NoiseFraction: 0.1, Seed: 55, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	params := core.LightParams()
	params.NumSplits = 12

	var buf bytes.Buffer
	jsonl := obs.NewJSONLTracer(&buf)
	mem := obs.NewMemTracer()
	engine := mr.NewEngine(mr.Config{
		Parallelism: 8, NumReducers: 3,
		Faults:      mr.RateFaultPlan{MapRate: 0.25, ReduceRate: 0.3, StragglerRate: 0.4, StragglerSeconds: 7, Seed: 107},
		MaxAttempts: 12,
		Tracer:      obs.Multi(jsonl, mem),
	})
	res, err := core.Run(engine, data, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Counters.TaskRetries == 0 {
		t.Fatal("chaos plan injected no retries — oracle exercises nothing")
	}

	a, err := obs.AnalyzeTrace(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 1 {
		t.Fatalf("analysis found %d roots, want 1 pipeline run", len(a.Runs))
	}
	run := a.Runs[0]
	if run.Name != "p3c-pipeline" || run.Kind != "run" || run.Outcome != "ok" {
		t.Fatalf("run analysis = %+v", run)
	}

	// --- reconcile with the MemTracer ground truth -----------------------
	wantAttempts, wantFaults, wantCancels := 0, 0, 0
	for _, e := range mem.Ends() {
		if e.Kind == obs.KindTask && e.Phase != "shuffle" {
			wantAttempts++
			switch e.Outcome {
			case obs.OutcomeFault:
				wantFaults++
			case obs.OutcomeCancelled:
				wantCancels++
			}
		}
	}
	if run.TaskAttempts != wantAttempts {
		t.Errorf("analysis counts %d task attempts, MemTracer saw %d", run.TaskAttempts, wantAttempts)
	}
	if run.Faults != wantFaults {
		t.Errorf("analysis counts %d faults, MemTracer saw %d", run.Faults, wantFaults)
	}
	if run.Cancels < wantCancels {
		t.Errorf("analysis counts %d cancels, MemTracer saw %d cancelled attempts", run.Cancels, wantCancels)
	}
	if run.Retries != res.Stats.Counters.TaskRetries {
		t.Errorf("analysis run retries = %d, pipeline counted %d", run.Retries, res.Stats.Counters.TaskRetries)
	}

	// Per-phase simulated/wall totals must match the phase spans MemTracer
	// recorded, phase by phase in order.
	var phaseEnds []obs.End
	for _, e := range mem.Ends() {
		if e.Kind == obs.KindPhase {
			phaseEnds = append(phaseEnds, e)
		}
	}
	if len(run.Phases) != len(phaseEnds) {
		t.Fatalf("analysis has %d phases, MemTracer saw %d", len(run.Phases), len(phaseEnds))
	}
	planned := params.PhasePlan()
	if len(planned) != len(run.Phases) {
		t.Fatalf("PhasePlan promises %d phases, trace has %d", len(planned), len(run.Phases))
	}
	for i, p := range run.Phases {
		if p.Name != planned[i] {
			t.Errorf("phase %d = %q, PhasePlan says %q", i, p.Name, planned[i])
		}
		if p.Name != phaseEnds[i].Name {
			t.Errorf("phase %d = %q, MemTracer saw %q", i, p.Name, phaseEnds[i].Name)
		}
		if math.Abs(p.SimulatedSeconds-phaseEnds[i].SimulatedSeconds) > 1e-9 {
			t.Errorf("phase %q sim %g vs MemTracer %g", p.Name, p.SimulatedSeconds, phaseEnds[i].SimulatedSeconds)
		}
		if math.Abs(p.WallSeconds-phaseEnds[i].RealSeconds) > 1e-9 {
			t.Errorf("phase %q wall %g vs MemTracer %g", p.Name, p.WallSeconds, phaseEnds[i].RealSeconds)
		}
	}

	// Straggler attribution totals must equal the straggler points emitted.
	var wantStragglerS float64
	wantStragglers := 0
	for _, p := range mem.Points() {
		if p.Kind == obs.PointStraggler {
			wantStragglers++
			wantStragglerS += p.Seconds
		}
	}
	gotStragglers, gotStragglerS := 0, 0.0
	for _, s := range run.Stragglers {
		gotStragglers += s.Count
		gotStragglerS += s.Seconds
	}
	if gotStragglers != wantStragglers || math.Abs(gotStragglerS-wantStragglerS) > 1e-9 {
		t.Errorf("straggler attribution %d/%.3fs, MemTracer saw %d/%.3fs",
			gotStragglers, gotStragglerS, wantStragglers, wantStragglerS)
	}
	if wantStragglers == 0 {
		t.Error("plan injected no stragglers — attribution untested")
	}

	// Retry-waste attribution: fault attempts must sum to the fault count.
	wasteFaults := 0
	for _, w := range run.RetryWaste {
		wasteFaults += w.FaultAttempts
	}
	if wasteFaults != wantFaults {
		t.Errorf("retry-waste rows cover %d fault attempts, want %d", wasteFaults, wantFaults)
	}

	// Job rows: per name, in first-completion order, the runs, committed
	// counters, wasted records and simulated seconds of the job spans
	// MemTracer recorded.
	var wantJobs []obs.JobRow
	jobIndex := make(map[string]int)
	for _, e := range mem.Ends() {
		if e.Kind != obs.KindJob {
			continue
		}
		i, ok := jobIndex[e.Name]
		if !ok {
			i = len(wantJobs)
			jobIndex[e.Name] = i
			wantJobs = append(wantJobs, obs.JobRow{Job: e.Name})
		}
		w := &wantJobs[i]
		w.Runs++
		w.Counters.Add(e.Counters)
		w.WastedRecords += e.Wasted.MapInputRecords + e.Wasted.ReduceInputVals
		w.SimulatedSeconds += e.SimulatedSeconds
	}
	if len(run.Jobs) != len(wantJobs) {
		t.Fatalf("analysis has %d job rows, MemTracer saw %d job names", len(run.Jobs), len(wantJobs))
	}
	var jobRetries, jobWasted int64
	for i, got := range run.Jobs {
		want := wantJobs[i]
		if got.Job != want.Job || got.Runs != want.Runs || got.Counters != want.Counters ||
			got.WastedRecords != want.WastedRecords {
			t.Errorf("job row %d = %+v, MemTracer says %+v", i, got, want)
		}
		if math.Abs(got.SimulatedSeconds-want.SimulatedSeconds) > 1e-9 {
			t.Errorf("job %q sim %g vs MemTracer %g", got.Job, got.SimulatedSeconds, want.SimulatedSeconds)
		}
		jobRetries += got.Counters.TaskRetries
		jobWasted += got.WastedRecords
	}
	if runWasted := run.Wasted.MapInputRecords + run.Wasted.ReduceInputVals; jobRetries != run.Retries || jobWasted != runWasted {
		t.Errorf("job rows total %d retries/%d wasted; run span says %d/%d",
			jobRetries, jobWasted, run.Retries, runWasted)
	}
	if jobWasted == 0 {
		t.Error("chaos plan wasted no records — job waste reconciliation untested")
	}

	// --- critical path ------------------------------------------------------
	// Each step lies inside the step it hangs under (the nearest earlier
	// step one level up), siblings on the path do not overlap, no step has
	// negative self time, and self seconds telescope to the run's wall
	// time. The pipeline's phases run one after another, so every one of
	// them is on the path.
	cp := run.CriticalPath
	if len(cp) < 3 {
		t.Fatalf("critical path has %d steps, want at least run→phase→job", len(cp))
	}
	if cp[0].Kind != "run" || cp[0].Depth != 0 {
		t.Errorf("critical path starts at %q (depth %d), want the run", cp[0].Kind, cp[0].Depth)
	}
	selfSum := 0.0
	var cpPhases []string
	lastAt := map[int]int{} // depth -> index of the latest step there
	for i, s := range cp {
		selfSum += s.SelfSeconds
		if s.SelfSeconds < 0 {
			t.Errorf("critical-path step %d has negative self time %g", i, s.SelfSeconds)
		}
		if s.Kind == "phase" {
			cpPhases = append(cpPhases, s.Name)
		}
		if i > 0 {
			parent := lastAt[s.Depth-1]
			if s.StartS < cp[parent].StartS-1e-9 || s.EndS > cp[parent].EndS+1e-9 {
				t.Errorf("critical-path step %d [%g,%g] not contained in its parent [%g,%g]",
					i, s.StartS, s.EndS, cp[parent].StartS, cp[parent].EndS)
			}
			if prev, ok := lastAt[s.Depth]; ok && prev > parent && cp[prev].EndS > s.StartS+1e-9 {
				t.Errorf("critical-path siblings %d and %d overlap", prev, i)
			}
		}
		lastAt[s.Depth] = i
	}
	if math.Abs(selfSum-run.WallSeconds) > 1e-3 {
		t.Errorf("critical-path self seconds sum to %g, run wall is %g", selfSum, run.WallSeconds)
	}
	if !slices.Equal(cpPhases, planned) {
		t.Errorf("critical path covers phases %v, want all of %v", cpPhases, planned)
	}

	// Skew rows: every (job, phase) group's max must be >= its median, and
	// the listed slowest attempt must exist in the trace.
	if len(run.Skew) == 0 {
		t.Fatal("no skew rows for a multi-job pipeline")
	}
	for _, s := range run.Skew {
		if s.MaxS+1e-12 < s.MedianS || s.MaxS+1e-12 < s.P90S {
			t.Errorf("skew row %s/%s has max %g < median %g or p90 %g", s.Job, s.Phase, s.MaxS, s.MedianS, s.P90S)
		}
	}

	// Top-K list: bounded by K and sorted descending.
	if len(run.Slowest) > 5 {
		t.Errorf("top-K list has %d entries, want <= 5", len(run.Slowest))
	}
	for i := 1; i < len(run.Slowest); i++ {
		if run.Slowest[i].Seconds > run.Slowest[i-1].Seconds {
			t.Errorf("slowest list not sorted at %d", i)
		}
	}

	// The text renderer must handle the full analysis without error.
	var txt bytes.Buffer
	if err := a.WriteText(&txt, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path", "job  ", "skew (job/phase)", "retry waste (job)", "slowest attempts"} {
		if !bytes.Contains(txt.Bytes(), []byte(want)) {
			t.Errorf("text output missing %q section", want)
		}
	}
}

// TestMain lets this test binary serve as a multiprocess-backend worker
// when the worker-attribution test below re-execs it.
func TestMain(m *testing.M) {
	mr.MaybeWorkerProcess()
	os.Exit(m.Run())
}

func init() {
	mr.RegisterJobImpl("trace-wordcount", func(spec []byte) (mr.JobFuncs, error) {
		return mr.JobFuncs{
			Mapper: mr.MapperFunc(func(ctx *mr.TaskContext, global int, row []float64) error {
				ctx.EmitI64(strconv.Itoa(int(row[0])%13), 1)
				return nil
			}),
			TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
				var s int64
				for i := 0; i < values.Len(); i++ {
					s += values.Int64(i)
				}
				ctx.EmitI64(key, s)
				return nil
			}),
		}, nil
	})
}

// TestAnalyzeWorkerAttribution pins the per-worker view of a multiprocess
// trace: every task attempt span carries the worker process it ran on, the
// worker table partitions the run's attempts and faults exactly, and
// faulted (SIGKILLed) attempts are attributed to the worker that died.
func TestAnalyzeWorkerAttribution(t *testing.T) {
	rows := make([]float64, 600)
	for i := range rows {
		rows[i] = float64(i)
	}
	splits := make([]*mr.Split, 6)
	for s := range splits {
		splits[s] = &mr.Split{ID: s, Offset: s * 100, Dim: 1, Rows: rows[s*100 : (s+1)*100]}
	}
	job := &mr.Job{Name: "trace-wc", Splits: splits, Impl: "trace-wordcount", NumReducers: 3}

	var buf bytes.Buffer
	jsonl := obs.NewJSONLTracer(&buf)
	engine := mr.NewEngine(mr.Config{
		Parallelism: 4, Backend: "multiprocess", SpillDir: t.TempDir(), SpillThresholdBytes: 1,
		Faults:      mr.RateFaultPlan{MapRate: 0.4, ReduceRate: 0.4, Seed: 3},
		MaxAttempts: 12, Tracer: jsonl,
	})
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Counters.TaskRetries == 0 {
		t.Fatal("fault plan injected no retries — attribution untested")
	}

	a, err := obs.AnalyzeTrace(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 1 {
		t.Fatalf("analysis found %d roots, want 1", len(a.Runs))
	}
	run := a.Runs[0]
	if len(run.Workers) == 0 {
		t.Fatal("multiprocess trace produced no worker rows")
	}
	attempts, faults := 0, 0
	for _, w := range run.Workers {
		if w.Worker == "" || w.Attempts == 0 {
			t.Errorf("implausible worker row %+v", w)
		}
		attempts += w.Attempts
		faults += w.Faults
	}
	if attempts != run.TaskAttempts {
		t.Errorf("worker rows cover %d attempts, run has %d", attempts, run.TaskAttempts)
	}
	if faults != run.Faults {
		t.Errorf("worker rows cover %d faults, run has %d", faults, run.Faults)
	}
	if faults == 0 {
		t.Error("no fault attributed to any worker despite injected kills")
	}
	for _, s := range run.Slowest {
		if s.Worker == "" {
			t.Errorf("slowest attempt %+v lacks worker attribution", s)
		}
	}
}

// TestClassifyAndTimeline pins the straggler classification and the timeline
// lanes on a synthetic two-worker trace: one attempt is slow because its
// input is skewed, one is slow on an idle (starved) worker.
func TestClassifyAndTimeline(t *testing.T) {
	trace := strings.TrimSpace(`
{"ev":"begin","ts":0,"id":1,"kind":"run","name":"r"}
{"ev":"begin","ts":0,"id":2,"parent":1,"kind":"job","name":"j"}
{"ev":"begin","ts":0,"id":3,"parent":2,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map"}
{"ev":"end","ts":1,"id":3,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map","outcome":"ok","real_s":1,"worker":"w1","counters":{"mapIn":100}}
{"ev":"begin","ts":0,"id":4,"parent":2,"kind":"task","name":"j","task":1,"attempt":1,"phase":"map"}
{"ev":"end","ts":1,"id":4,"kind":"task","name":"j","task":1,"attempt":1,"phase":"map","outcome":"ok","real_s":1,"worker":"w2","counters":{"mapIn":100}}
{"ev":"begin","ts":1,"id":5,"parent":2,"kind":"task","name":"j","task":2,"attempt":1,"phase":"map"}
{"ev":"end","ts":5,"id":5,"kind":"task","name":"j","task":2,"attempt":1,"phase":"map","outcome":"ok","real_s":4,"worker":"w1","counters":{"mapIn":400}}
{"ev":"begin","ts":1,"id":6,"parent":2,"kind":"task","name":"j","task":3,"attempt":1,"phase":"map"}
{"ev":"end","ts":5,"id":6,"kind":"task","name":"j","task":3,"attempt":1,"phase":"map","outcome":"ok","real_s":4,"worker":"w2","counters":{"mapIn":100}}
{"ev":"point","ts":1,"span":5,"point":"sample","worker":"w1","sample":{"cpu_s":1.0}}
{"ev":"point","ts":5,"span":5,"point":"sample","worker":"w1","sample":{"cpu_s":4.8}}
{"ev":"point","ts":1,"span":6,"point":"sample","worker":"w2","sample":{"cpu_s":1.0}}
{"ev":"point","ts":5,"span":6,"point":"sample","worker":"w2","sample":{"cpu_s":1.4}}
{"ev":"end","ts":5,"id":2,"kind":"job","name":"j","outcome":"ok","real_s":5}
{"ev":"end","ts":5,"id":1,"kind":"run","name":"r","outcome":"ok","real_s":5}
`) + "\n"

	a, err := obs.AnalyzeTrace(strings.NewReader(trace), 5)
	if err != nil {
		t.Fatal(err)
	}
	run := a.Runs[0]

	if len(run.Classified) != 2 {
		t.Fatalf("classified %d attempts, want 2: %+v", len(run.Classified), run.Classified)
	}
	byTask := make(map[string]obs.ClassifyRow)
	for _, c := range run.Classified {
		byTask[c.Task] = c
	}
	// task 2.1: 400 records vs median 100 → skewed (worker w1 was busy,
	// util ~0.95, but input ratio dominates).
	if c := byTask["2.1"]; c.Class != "skewed" || c.Worker != "w1" {
		t.Errorf("task 2.1 classified %+v, want skewed on w1", c)
	}
	// task 3.1: median input but worker w2's CPU barely moved → starved.
	if c := byTask["3.1"]; c.Class != "starved" || c.Worker != "w2" {
		t.Errorf("task 3.1 classified %+v, want starved on w2", c)
	}

	if len(run.Timeline) != 2 {
		t.Fatalf("timeline has %d lanes, want 2", len(run.Timeline))
	}
	if run.Timeline[0].Worker != "w1" || run.Timeline[1].Worker != "w2" {
		t.Errorf("timeline lanes not sorted by worker: %+v", run.Timeline)
	}
	for _, lane := range run.Timeline {
		if len(lane.Intervals) != 2 {
			t.Errorf("lane %s has %d intervals, want 2", lane.Worker, len(lane.Intervals))
		}
		for i := 1; i < len(lane.Intervals); i++ {
			if lane.Intervals[i].StartS < lane.Intervals[i-1].StartS {
				t.Errorf("lane %s intervals not in start order", lane.Worker)
			}
		}
	}

	// The text renderer with the timeline on must include the new sections.
	var sb strings.Builder
	if err := a.WriteText(&sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"worker telemetry", "stragglers classified", "timeline", "crit"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q section:\n%s", want, out)
		}
	}
}
