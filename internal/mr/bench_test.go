package mr

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"p3cmr/internal/obs"
)

// Micro-benchmarks for the engine's hot paths. The four shapes mirror the
// traffic the P3C+-MR pipeline actually generates:
//
//   - MapHeavy: per-record compute with one emit per task (histogram-style
//     jobs — §5.1, §5.3 — where mappers accumulate locally and emit in
//     Cleanup). Measures task scheduling + barrier overhead.
//   - ShuffleHeavy: one emit per record across many keys (EM refinement
//     style, §5.4). Measures partition + collection + grouping cost.
//   - Combiner{Off,On}: word-count shape with and without map-side folding.
//     Measures combine-side grouping cost and shuffle-volume accounting.
//   - WideKey: shuffle-heavy with ~64-byte keys. Measures the per-byte cost
//     of key interning and grouping.
//
// The benchmarks drive the typed emit plane (EmitF64 +
// TypedReducer/TypedCombiner) — the path the pipeline's own jobs use.
//
// Each engine benchmark runs one untimed warmup job before ResetTimer so the
// engine's buffer pools reach steady state; at -benchtime 1x the first
// iteration would otherwise be charged the one-off pool population cost.
//
// Run with: go test -bench=. -benchmem ./internal/mr/
const (
	benchRows   = 20000
	benchDim    = 8
	benchSplits = 16
	benchPar    = 4
)

func benchMakeSplits(n, dim, numSplits int) []*Split {
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = float64(i%97) * 0.5
	}
	splits := make([]*Split, 0, numSplits)
	base := n / numSplits
	rem := n % numSplits
	off := 0
	for s := 0; s < numSplits; s++ {
		sz := base
		if s < rem {
			sz++
		}
		splits = append(splits, &Split{ID: s, Offset: off, Dim: dim, Rows: rows[off*dim : (off+sz)*dim]})
		off += sz
	}
	return splits
}

// benchKeys precomputes a key table so fmt allocations never pollute the
// engine measurement.
func benchKeys(n int, width int) []string {
	keys := make([]string, n)
	for i := range keys {
		k := fmt.Sprintf("k%04d", i)
		if pad := width - len(k); pad > 0 {
			k += strings.Repeat("x", pad)
		}
		keys[i] = k
	}
	return keys
}

func benchSumTypedReducer() TypedReducer {
	return TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
		var s float64
		for i := 0; i < values.Len(); i++ {
			s += values.Float64(i)
		}
		ctx.EmitF64(key, s)
		return nil
	})
}

// benchRunJob drives mkJob through the engine with one untimed warmup run
// (pool steady state) and then b.N timed runs.
func benchRunJob(b *testing.B, engine *Engine, mkJob func() *Job, wantPairs int) {
	b.Helper()
	b.ReportAllocs()
	run := func() {
		out, err := engine.Run(mkJob())
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Pairs) != wantPairs {
			b.Fatalf("output = %d pairs, want %d", len(out.Pairs), wantPairs)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkMapHeavy(b *testing.B) {
	splits := benchMakeSplits(benchRows, benchDim, benchSplits)
	engine := NewEngine(Config{Parallelism: benchPar, NumReducers: 4})
	benchRunJob(b, engine, func() *Job {
		return &Job{
			Name:         "bench-map-heavy",
			Splits:       splits,
			NewMapper:    func() Mapper { return &benchSumTaskMapper{} },
			TypedReducer: benchSumTypedReducer(),
		}
	}, 1)
}

type benchSumTaskMapper struct{ s float64 }

func (m *benchSumTaskMapper) Setup(*TaskContext) error { return nil }
func (m *benchSumTaskMapper) Map(ctx *TaskContext, global int, row []float64) error {
	for _, v := range row {
		m.s += v * v
	}
	return nil
}
func (m *benchSumTaskMapper) Cleanup(ctx *TaskContext) error {
	ctx.EmitF64("sum", m.s)
	return nil
}

func benchVals(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%13) * 0.25
	}
	return vals
}

func benchShuffle(b *testing.B, keys []string, combiner TypedCombiner) {
	benchShuffleEngine(b, keys, combiner, NewEngine(Config{Parallelism: benchPar, NumReducers: 4}))
}

func benchShuffleEngine(b *testing.B, keys []string, combiner TypedCombiner, engine *Engine) {
	splits := benchMakeSplits(benchRows, benchDim, benchSplits)
	vals := benchVals(len(keys))
	benchRunJob(b, engine, func() *Job {
		return &Job{
			Name:   "bench-shuffle",
			Splits: splits,
			Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
				ctx.EmitF64(keys[global%len(keys)], vals[global%len(vals)])
				return nil
			}),
			TypedReducer:  benchSumTypedReducer(),
			TypedCombiner: combiner,
		}
	}, len(keys))
}

func BenchmarkShuffleHeavy(b *testing.B) {
	benchShuffle(b, benchKeys(512, 0), nil)
}

func BenchmarkCombinerOff(b *testing.B) {
	benchShuffle(b, benchKeys(64, 0), nil)
}

func BenchmarkCombinerOn(b *testing.B) {
	benchShuffle(b, benchKeys(64, 0), TypedCombinerFunc(func(key string, values Values, out *CombineEmit) error {
		var s float64
		for i := 0; i < values.Len(); i++ {
			s += values.Float64(i)
		}
		out.EmitF64(s)
		return nil
	}))
}

func BenchmarkWideKey(b *testing.B) {
	benchShuffle(b, benchKeys(512, 64), nil)
}

// BenchmarkShuffleHeavyTraced prices the tracing overhead: same shape as
// ShuffleHeavy with a JSONL tracer writing to io.Discard. The nil-tracer
// benchmarks above stay the zero-overhead pin; this one bounds the cost of
// turning tracing on (span + event marshalling per task attempt).
func BenchmarkShuffleHeavyTraced(b *testing.B) {
	tr := obs.NewJSONLTracer(io.Discard)
	engine := NewEngine(Config{Parallelism: benchPar, NumReducers: 4, Tracer: tr})
	benchShuffleEngine(b, benchKeys(512, 0), nil, engine)
}

// BenchmarkMapHeavyTraced mirrors MapHeavy with tracing enabled.
func BenchmarkMapHeavyTraced(b *testing.B) {
	splits := benchMakeSplits(benchRows, benchDim, benchSplits)
	tr := obs.NewJSONLTracer(io.Discard)
	engine := NewEngine(Config{Parallelism: benchPar, NumReducers: 4, Tracer: tr})
	benchRunJob(b, engine, func() *Job {
		return &Job{
			Name:         "bench-map-heavy",
			Splits:       splits,
			NewMapper:    func() Mapper { return &benchSumTaskMapper{} },
			TypedReducer: benchSumTypedReducer(),
		}
	}, 1)
}

// BenchmarkPartition isolates the key→reducer hash on a mix of key widths.
// The key tables are built before ResetTimer: at -benchtime 1x (the bench
// harness setting), b.N is 1 and setup allocations would otherwise dominate
// allocs/op — the hash itself is allocation-free (see TestPartitionAllocFree).
func BenchmarkPartition(b *testing.B) {
	keys := benchKeys(512, 0)
	wide := benchKeys(512, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += partition(keys[i%len(keys)], 112)
		sink += partition(wide[i%len(wide)], 112)
	}
	_ = sink
}

// TestPartitionAllocFree pins the property BenchmarkPartition's allocs/op
// column is meant to show: hashing a key allocates nothing. The benchmark
// number once drifted to 2564 allocs/op because setup ran inside the
// measured window; this guard can't be fooled by harness settings.
func TestPartitionAllocFree(t *testing.T) {
	keys := benchKeys(64, 0)
	wide := benchKeys(64, 64)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for i := range keys {
			sink += partition(keys[i], 112)
			sink += partition(wide[i], 112)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("partition allocates: %v allocs/run, want 0", allocs)
	}
}
