package mr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"p3cmr/internal/obs"
)

// makeSplits builds splits over sequential 1-D data 0..n-1 (scaled).
func makeSplits(n, numSplits int) []*Split {
	rows := make([]float64, n)
	for i := range rows {
		rows[i] = float64(i)
	}
	var splits []*Split
	base := n / numSplits
	rem := n % numSplits
	off := 0
	for s := 0; s < numSplits; s++ {
		sz := base
		if s < rem {
			sz++
		}
		splits = append(splits, &Split{ID: s, Offset: off, Dim: 1, Rows: rows[off : off+sz]})
		off += sz
	}
	return splits
}

func TestWordCountStyleJob(t *testing.T) {
	// Classic even/odd count: exercises map, shuffle, grouping, reduce.
	engine := Default()
	job := &Job{
		Name:   "evenodd",
		Splits: makeSplits(1000, 7),
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
			if int(row[0])%2 == 0 {
				ctx.Emit("even", int64(1))
			} else {
				ctx.Emit("odd", int64(1))
			}
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
			var sum int64
			for i := 0; i < values.Len(); i++ {
				sum += values.Int64(i)
			}
			ctx.Emit(key, sum)
			return nil
		}),
		NumReducers: 3,
	}
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	even, _ := out.Single("even")
	odd, _ := out.Single("odd")
	if even != any(int64(500)) || odd != any(int64(500)) {
		t.Fatalf("counts = %v", out.Pairs)
	}
	if out.Counters.MapInputRecords != 1000 {
		t.Errorf("map input = %d", out.Counters.MapInputRecords)
	}
	if out.Counters.ReduceInputKeys != 2 {
		t.Errorf("reduce keys = %d", out.Counters.ReduceInputKeys)
	}
}

func TestMapOnlyJob(t *testing.T) {
	engine := Default()
	job := &Job{
		Name:   "maponly",
		Splits: makeSplits(100, 4),
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
			ctx.Emit(fmt.Sprintf("p%d", global), row[0])
			return nil
		}),
	}
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs) != 100 {
		t.Fatalf("map-only output = %d pairs", len(out.Pairs))
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	run := func(withCombiner bool) Counters {
		engine := Default()
		job := &Job{
			Name:   "combine",
			Splits: makeSplits(1000, 8),
			Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
				ctx.Emit("sum", int64(1))
				return nil
			}),
			TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
				var s int64
				for i := 0; i < values.Len(); i++ {
					s += values.Int64(i)
				}
				ctx.Emit(key, s)
				return nil
			}),
		}
		if withCombiner {
			job.TypedCombiner = TypedCombinerFunc(func(key string, values Values, out *CombineEmit) error {
				var s int64
				for i := 0; i < values.Len(); i++ {
					s += values.Int64(i)
				}
				out.Emit(s)
				return nil
			})
		}
		out, err := engine.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := out.Single("sum"); !ok || got != any(int64(1000)) {
			t.Fatalf("sum = %v", got)
		}
		return out.Counters
	}
	plain := run(false)
	combined := run(true)
	if combined.ShuffledBytes >= plain.ShuffledBytes {
		t.Errorf("combiner did not reduce shuffle: %d vs %d", combined.ShuffledBytes, plain.ShuffledBytes)
	}
	if combined.CombineInput != 1000 || combined.CombineOutput != 8 {
		t.Errorf("combine counters: in=%d out=%d", combined.CombineInput, combined.CombineOutput)
	}
}

func TestSetupCleanupHooks(t *testing.T) {
	engine := Default()
	var setups, cleanups atomic.Int64
	job := &Job{
		Name:   "hooks",
		Splits: makeSplits(100, 5),
		NewMapper: func() Mapper {
			return &hookMapper{setups: &setups, cleanups: &cleanups}
		},
	}
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if setups.Load() != 5 || cleanups.Load() != 5 {
		t.Fatalf("setup=%d cleanup=%d, want 5 each", setups.Load(), cleanups.Load())
	}
}

type hookMapper struct {
	setups, cleanups *atomic.Int64
	local            int
}

func (m *hookMapper) Setup(*TaskContext) error { m.setups.Add(1); return nil }
func (m *hookMapper) Map(ctx *TaskContext, global int, row []float64) error {
	m.local++
	return nil
}
func (m *hookMapper) Cleanup(ctx *TaskContext) error {
	m.cleanups.Add(1)
	ctx.Emit("n", int64(m.local))
	return nil
}

func TestDistributedCache(t *testing.T) {
	engine := Default()
	job := &Job{
		Name:   "cache",
		Splits: makeSplits(10, 2),
		Cache:  map[string]any{"factor": 3.0},
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
			f := ctx.MustCache("factor").(float64)
			ctx.Emit("sum", row[0]*f)
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
			s := 0.0
			for i := 0; i < values.Len(); i++ {
				s += values.Float64(i)
			}
			ctx.Emit(key, s)
			return nil
		}),
	}
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := out.Single("sum"); !ok || got != any(135.0) { // 3·(0+..+9)
		t.Fatalf("sum = %v", got)
	}
}

func TestCacheValueMissing(t *testing.T) {
	ctx := &TaskContext{cache: nil}
	if _, ok := ctx.CacheValue("absent"); ok {
		t.Fatal("missing cache entry reported present")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCache must panic on missing entry")
		}
	}()
	ctx.MustCache("absent")
}

func TestMapperErrorPropagates(t *testing.T) {
	engine := Default()
	boom := errors.New("boom")
	job := &Job{
		Name:   "err",
		Splits: makeSplits(10, 2),
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
			if global == 7 {
				return boom
			}
			return nil
		}),
	}
	_, err := engine.Run(job)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoMapperRejected(t *testing.T) {
	engine := Default()
	if _, err := engine.Run(&Job{Name: "nil"}); err == nil {
		t.Fatal("job without mapper must fail")
	}
}

// TestFaultInjectionRetrySucceeds: with a moderate failure rate and fresh
// mappers per attempt, the job must still produce exact results.
func TestFaultInjectionRetrySucceeds(t *testing.T) {
	engine := NewEngine(Config{Faults: UniformFaults(0.5, 99), MaxAttempts: 10})
	job := &Job{
		Name:   "flaky",
		Splits: makeSplits(1000, 10),
		NewMapper: func() Mapper {
			// Stateful mapper: accumulates locally, emits in cleanup — a
			// retry must restart from zero.
			return &sumMapper{}
		},
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
			var s float64
			for i := 0; i < values.Len(); i++ {
				s += values.Float64(i)
			}
			ctx.Emit(key, s)
			return nil
		}),
	}
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(999*1000) / 2
	if got, ok := out.Single("sum"); !ok || got != any(want) {
		t.Fatalf("sum = %v, want %g (retries corrupted state)", got, want)
	}
	if out.Counters.TaskRetries == 0 {
		t.Error("expected at least one injected retry at 50% failure rate")
	}
}

type sumMapper struct{ s float64 }

func (m *sumMapper) Setup(*TaskContext) error { return nil }
func (m *sumMapper) Map(ctx *TaskContext, global int, row []float64) error {
	m.s += row[0]
	return nil
}
func (m *sumMapper) Cleanup(ctx *TaskContext) error {
	ctx.Emit("sum", m.s)
	return nil
}

func TestFaultInjectionExhaustsAttempts(t *testing.T) {
	engine := NewEngine(Config{Faults: UniformFaults(1.0, 1), MaxAttempts: 3})
	job := &Job{
		Name:   "doomed",
		Splits: makeSplits(10, 1),
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error { return nil }),
	}
	if _, err := engine.Run(job); err == nil {
		t.Fatal("certain failure must exhaust attempts")
	}
}

func TestEngineAccounting(t *testing.T) {
	engine := NewEngine(Config{Cost: DefaultCostModel()})
	job := &Job{
		Name:   "cost",
		Splits: makeSplits(100, 4),
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
			ctx.Emit("k", int64(1))
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error { return nil }),
	}
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if out.SimulatedSeconds < DefaultCostModel().JobStartupSeconds {
		t.Errorf("simulated cost %g below startup", out.SimulatedSeconds)
	}
	if engine.JobsRun() != 1 {
		t.Errorf("jobs run = %d", engine.JobsRun())
	}
	if engine.TotalSimulatedSeconds() != out.SimulatedSeconds {
		t.Error("engine accumulation mismatch")
	}
	engine.ResetAccounting()
	if engine.JobsRun() != 0 || engine.TotalSimulatedSeconds() != 0 {
		t.Error("reset failed")
	}
}

// TestJobStatsByName checks the per-job-name table a traced run yields:
// repeated runs of one name fold into one row, in first-completion order,
// and the rows sum to the engine's own totals.
func TestJobStatsByName(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	engine := NewEngine(Config{Cost: DefaultCostModel(), Tracer: tr})
	mapper := MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
		ctx.Emit("k", int64(1))
		return nil
	})
	run := obs.NewSpanID()
	tr.Begin(obs.Start{ID: run, Kind: obs.KindRun, Name: "jobstats"})
	for i := 0; i < 3; i++ {
		if _, err := engine.Run(&Job{Name: "alpha", Splits: makeSplits(50, 2), Mapper: mapper, TraceParent: run}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Run(&Job{Name: "beta", Splits: makeSplits(10, 1), Mapper: mapper, TraceParent: run}); err != nil {
		t.Fatal(err)
	}
	tr.End(obs.End{ID: run, Kind: obs.KindRun, Name: "jobstats", Outcome: obs.OutcomeOK})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := obs.AnalyzeTrace(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(a.Runs))
	}
	stats := a.Runs[0].Jobs
	if len(stats) != 2 || stats[0].Job != "alpha" || stats[1].Job != "beta" {
		t.Fatalf("job rows: %+v", stats)
	}
	if stats[0].Runs != 3 || stats[1].Runs != 1 {
		t.Fatalf("runs: %+v", stats)
	}
	if stats[0].Counters.MapInputRecords != 150 {
		t.Errorf("alpha map input = %d", stats[0].Counters.MapInputRecords)
	}
	if stats[0].SimulatedSeconds <= 0 {
		t.Error("alpha simulated cost missing")
	}
	var sum Counters
	var sim float64
	for _, r := range stats {
		sum.Add(r.Counters)
		sim += r.SimulatedSeconds
	}
	if sum != engine.TotalCounters() {
		t.Errorf("job rows sum to %+v, engine totals %+v", sum, engine.TotalCounters())
	}
	if math.Abs(sim-engine.TotalSimulatedSeconds()) > 1e-9 {
		t.Errorf("job rows simulate %g s, engine %g s", sim, engine.TotalSimulatedSeconds())
	}
}

func TestCostModelDisabled(t *testing.T) {
	engine := Default()
	out, err := engine.Run(&Job{
		Name:   "free",
		Splits: makeSplits(10, 1),
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error { return nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.SimulatedSeconds != 0 {
		t.Errorf("disabled cost model charged %g", out.SimulatedSeconds)
	}
}

func TestPartitionDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 7, 112} {
		for _, key := range []string{"", "a", "hello", "c42"} {
			p1 := partition(key, n)
			p2 := partition(key, n)
			if p1 != p2 || p1 < 0 || p1 >= n {
				t.Fatalf("partition(%q,%d) = %d,%d", key, n, p1, p2)
			}
		}
	}
}

func TestOutputSingle(t *testing.T) {
	out := &Output{Pairs: []Pair{{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "b", Value: 3}}}
	if v, ok := out.Single("a"); !ok || v.(int) != 1 {
		t.Error("Single(a) wrong")
	}
	if _, ok := out.Single("b"); ok {
		t.Error("duplicated key must not be single")
	}
	if _, ok := out.Single("z"); ok {
		t.Error("absent key must not be single")
	}
}

func TestSplitAccessors(t *testing.T) {
	s := &Split{ID: 0, Offset: 10, Dim: 2, Rows: []float64{1, 2, 3, 4}}
	if s.NumRows() != 2 {
		t.Fatalf("rows = %d", s.NumRows())
	}
	r := s.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("row = %v", r)
	}
	empty := &Split{}
	if empty.NumRows() != 0 {
		t.Fatal("empty split rows != 0")
	}
}

func TestEmptySplitsJob(t *testing.T) {
	engine := Default()
	out, err := engine.Run(&Job{
		Name:   "empty",
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error { return nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs) != 0 {
		t.Fatal("empty job produced output")
	}
}

func TestCountersAddAndString(t *testing.T) {
	a := Counters{MapInputRecords: 1, ShuffledBytes: 10}
	a.Add(Counters{MapInputRecords: 2, ShuffledBytes: 5, TaskRetries: 1})
	if a.MapInputRecords != 3 || a.ShuffledBytes != 15 || a.TaskRetries != 1 {
		t.Fatalf("add wrong: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestApproxValueBytes(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{int64(5), 8},
		{3.14, 8},
		{[]float64{1, 2, 3}, 24},
		{"abcd", 4},
		{struct{}{}, 16},
	}
	for _, c := range cases {
		if got := approxValueBytes(c.v); got != c.want {
			t.Errorf("approxValueBytes(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}
