package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/obs/archive"
)

// traceWordcount runs the registered trace-wordcount job under the given
// fault plan with the deterministic cost model and returns the JSONL trace.
func traceWordcount(t *testing.T, plan mr.RateFaultPlan) []byte {
	t.Helper()
	rows := make([]float64, 400)
	for i := range rows {
		rows[i] = float64(i)
	}
	splits := make([]*mr.Split, 4)
	for s := range splits {
		splits[s] = &mr.Split{ID: s, Offset: s * 100, Dim: 1, Rows: rows[s*100 : (s+1)*100]}
	}
	var buf bytes.Buffer
	jsonl := obs.NewJSONLTracer(&buf)
	engine := mr.NewEngine(mr.Config{
		Parallelism: 2, Faults: plan, MaxAttempts: 12,
		Cost: mr.DefaultCostModel(), Tracer: jsonl,
	})
	job := &mr.Job{Name: "diff-wc", Splits: splits, Impl: "trace-wordcount", NumReducers: 3}
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, dir, name string, b []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceDiffStragglerGate pins the -diff CI contract: comparing a clean
// run against a straggler-seeded run of the same job trips the straggler
// gate, attributes the growth, and exits nonzero; the reverse comparison
// (stragglers removed) passes.
func TestTraceDiffStragglerGate(t *testing.T) {
	clean := traceWordcount(t, mr.RateFaultPlan{})
	slow := traceWordcount(t, mr.RateFaultPlan{StragglerRate: 0.5, StragglerSeconds: 2, Seed: 1})

	dir := t.TempDir()
	pathA := writeTemp(t, dir, "clean.jsonl", clean)
	pathB := writeTemp(t, dir, "slow.jsonl", slow)

	gates := diffGates{stragglerSeconds: 1, wallFrac: -1, simFrac: -1}
	var out bytes.Buffer
	if code := runTraceDiff(&out, pathA, pathB, gates); code == 0 {
		t.Fatalf("clean→straggler diff exited 0; output:\n%s", out.String())
	}
	txt := out.String()
	if !strings.Contains(txt, "REGRESSION straggler") {
		t.Errorf("diff output lacks straggler regression verdict:\n%s", txt)
	}
	// The verdict must attribute the growth to the job/phase that slowed
	// down.
	if !strings.Contains(txt, "worst: diff-wc/") {
		t.Errorf("straggler regression not attributed to a job/phase:\n%s", txt)
	}
	for _, section := range []string{"totals", "critical path", "counter"} {
		if !strings.Contains(txt, section) {
			t.Errorf("diff output missing %q section:\n%s", section, txt)
		}
	}

	// Reverse direction: stragglers went away, gate must pass.
	var rev bytes.Buffer
	if code := runTraceDiff(&rev, pathB, pathA, gates); code != 0 {
		t.Fatalf("straggler→clean diff exited nonzero:\n%s", rev.String())
	}
	if !strings.Contains(rev.String(), "no regressions") {
		t.Errorf("passing diff lacks the all-clear line:\n%s", rev.String())
	}

	// Identical runs: everything is flat, exit 0 even with all gates armed.
	var same bytes.Buffer
	if code := runTraceDiff(&same, pathA, pathA, diffGates{stragglerSeconds: 0, wallFrac: 0.5, simFrac: 0}); code != 0 {
		t.Fatalf("self-diff exited nonzero:\n%s", same.String())
	}
}

// TestTraceDiffSimGate checks the fractional simulated-seconds gate: the
// straggler charge lands in sim seconds under the cost model, so a tight
// sim threshold trips on the seeded run too.
func TestTraceDiffSimGate(t *testing.T) {
	clean := traceWordcount(t, mr.RateFaultPlan{})
	slow := traceWordcount(t, mr.RateFaultPlan{StragglerRate: 0.9, StragglerSeconds: 5, Seed: 7})
	dir := t.TempDir()
	pathA := writeTemp(t, dir, "a.jsonl", clean)
	pathB := writeTemp(t, dir, "b.jsonl", slow)

	var out bytes.Buffer
	code := runTraceDiff(&out, pathA, pathB, diffGates{stragglerSeconds: -1, wallFrac: -1, simFrac: 0.1})
	if code == 0 {
		t.Fatalf("sim gate did not trip; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION sim s") {
		t.Errorf("output lacks sim regression verdict:\n%s", out.String())
	}
}

// TestResolveTraceShapes pins the -diff argument forms: a plain file, an
// archive record directory, and an archive root (newest record wins).
func TestResolveTraceShapes(t *testing.T) {
	dir := t.TempDir()
	trace := traceWordcount(t, mr.RateFaultPlan{})
	plain := writeTemp(t, dir, "plain.jsonl", trace)

	if got, err := resolveTrace(plain); err != nil || got != plain {
		t.Fatalf("resolveTrace(file) = %q, %v", got, err)
	}

	root := filepath.Join(dir, "arch")
	arch, err := archive.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	first, err := arch.Seal(plain, archive.Manifest{Name: "first"})
	if err != nil {
		t.Fatal(err)
	}
	// A second, different record becomes the newest.
	slow := writeTemp(t, dir, "slow.jsonl",
		traceWordcount(t, mr.RateFaultPlan{StragglerRate: 0.5, StragglerSeconds: 2, Seed: 1}))
	second, err := arch.Seal(slow, archive.Manifest{Name: "second"})
	if err != nil {
		t.Fatal(err)
	}

	recDir := filepath.Join(root, first.ID)
	if got, err := resolveTrace(recDir); err != nil || got != filepath.Join(recDir, "trace.jsonl") {
		t.Fatalf("resolveTrace(record dir) = %q, %v", got, err)
	}
	if got, err := resolveTrace(root); err != nil || got != arch.TracePath(second.ID) {
		t.Fatalf("resolveTrace(archive root) = %q, %v (want newest record %s)", got, err, second.ID)
	}

	empty := filepath.Join(dir, "nothing")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveTrace(empty); err == nil {
		t.Fatal("resolveTrace(empty dir) succeeded, want error")
	}

	// End-to-end: diffing the two archive forms resolves and gates.
	var out bytes.Buffer
	if code := runTraceDiff(&out, recDir, root, diffGates{stragglerSeconds: 1, wallFrac: -1, simFrac: -1}); code == 0 {
		t.Fatalf("archived clean→straggler diff exited 0:\n%s", out.String())
	}
}

// TestJSONWorkersReconcileWithWorkerStats is the satellite oracle for the
// -json worker table: the same multiprocess event stream feeds a JSONL
// trace (what p3ctrace -json analyzes) and a live obs.WorkerStats sink (the
// /workers payload), and the two per-worker views must agree field by
// field on everything both track.
func TestJSONWorkersReconcileWithWorkerStats(t *testing.T) {
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
	ws := obs.NewWorkerStats()
	engine := mr.NewEngine(mr.Config{
		Parallelism: 4, Backend: "multiprocess", SpillDir: t.TempDir(), SpillThresholdBytes: 1,
		Faults:      mr.RateFaultPlan{MapRate: 0.4, ReduceRate: 0.4, StragglerRate: 0.3, StragglerSeconds: 3, Seed: 11},
		MaxAttempts: 12, Cost: mr.DefaultCostModel(), Tracer: obs.Multi(jsonl, ws),
	})
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := obs.AnalyzeTrace(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 1 {
		t.Fatalf("got %d runs", len(a.Runs))
	}

	// Round-trip the analysis through its JSON form — the reconciliation
	// must hold for what -json actually emits, not the in-memory struct.
	payload, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded obs.Analysis
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}
	got := decoded.Runs[0].Workers
	if len(got) == 0 {
		t.Fatal("-json payload carries no worker rows for a multiprocess trace")
	}
	byName := make(map[string]obs.WorkerRow, len(got))
	for _, r := range got {
		byName[r.Worker] = r
	}

	snaps := ws.Snapshot()
	if len(snaps) != len(got) {
		t.Fatalf("-json has %d worker rows, WorkerStats has %d", len(got), len(snaps))
	}
	for _, snap := range snaps {
		row, ok := byName[snap.Worker]
		if !ok {
			t.Errorf("worker %q in WorkerStats but not in -json rows", snap.Worker)
			continue
		}
		if int64(row.Attempts) != snap.Attempts {
			t.Errorf("worker %q: -json attempts %d, WorkerStats %d", snap.Worker, row.Attempts, snap.Attempts)
		}
		if int64(row.Faults) != snap.Faults {
			t.Errorf("worker %q: -json faults %d, WorkerStats %d", snap.Worker, row.Faults, snap.Faults)
		}
		if diff := row.WallSeconds - snap.BusySeconds; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("worker %q: -json wall %g, WorkerStats busy %g", snap.Worker, row.WallSeconds, snap.BusySeconds)
		}
		if diff := row.StragglerSeconds - snap.StragglerSeconds; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("worker %q: -json straggler %g, WorkerStats %g", snap.Worker, row.StragglerSeconds, snap.StragglerSeconds)
		}
		if row.WastedRecords != snap.Wasted.MapInputRecords+snap.Wasted.ReduceInputVals {
			t.Errorf("worker %q: -json wasted records %d, WorkerStats %d",
				snap.Worker, row.WastedRecords, snap.Wasted.MapInputRecords+snap.Wasted.ReduceInputVals)
		}
		if int64(row.Samples) != snap.Samples {
			t.Errorf("worker %q: -json samples %d, WorkerStats %d", snap.Worker, row.Samples, snap.Samples)
		}
		if row.PeakRSSBytes != snap.PeakRSSBytes {
			t.Errorf("worker %q: -json peak rss %d, WorkerStats %d", snap.Worker, row.PeakRSSBytes, snap.PeakRSSBytes)
		}
		if row.PeakQueueBytes != snap.PeakQueueBytes {
			t.Errorf("worker %q: -json peak queue %d, WorkerStats %d", snap.Worker, row.PeakQueueBytes, snap.PeakQueueBytes)
		}
		for name, s := range snap.StepSeconds {
			if diff := row.StepSeconds[name] - s; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("worker %q step %q: -json %g, WorkerStats %g", snap.Worker, name, row.StepSeconds[name], s)
			}
		}
	}
}
