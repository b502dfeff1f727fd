package mr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// typedTestSplits builds a small deterministic input.
func typedTestSplits(splits, rows, dim int) []*Split {
	out := make([]*Split, splits)
	global := 0
	for s := 0; s < splits; s++ {
		sp := &Split{ID: s, Offset: global, Dim: dim}
		for r := 0; r < rows; r++ {
			for d := 0; d < dim; d++ {
				sp.Rows = append(sp.Rows, float64(global*dim+d)*0.25)
			}
			global++
		}
		out[s] = sp
	}
	return out
}

// sumByKey is the test-local reduce reference: it groups a map-only run's
// output by key and sums each key's float64 values in pair order.
func sumByKey(pairs []Pair) map[string]float64 {
	sums := make(map[string]float64)
	for _, p := range pairs {
		sums[p.Key] += p.Value.(float64)
	}
	return sums
}

// checkAgainstReference requires a reduce job's output to hold exactly one
// pair per key of ref, carrying ref's sum.
func checkAgainstReference(t *testing.T, name string, out []Pair, ref map[string]float64) {
	t.Helper()
	if len(out) != len(ref) {
		t.Fatalf("%s: %d output pairs, reference has %d keys", name, len(out), len(ref))
	}
	for _, p := range out {
		if want, ok := ref[p.Key]; !ok || p.Value.(float64) != want {
			t.Fatalf("%s: %s = %v, reference %v", name, p.Key, p.Value, want)
		}
	}
}

// TestTypedEmitGolden pins the typed lane (EmitF64 + TypedReducer) to the
// pairs and counters the engine produced for this job before the typed
// plane replaced the []any reduce surface, and checks the sums against a
// map-only run reduced in the test.
func TestTypedEmitGolden(t *testing.T) {
	splits := typedTestSplits(4, 32, 3)
	key := func(g int) string { return fmt.Sprintf("k%d", g%7) }
	mapper := MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
		ctx.EmitF64(key(global), row[0]+row[1])
		return nil
	})
	typed := &Job{
		Name:   "boxed",
		Splits: splits,
		Mapper: mapper,
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
			sum := 0.0
			for i := 0; i < values.Len(); i++ {
				sum += values.Float64(i)
			}
			ctx.EmitF64(k, sum)
			return nil
		}),
		NumReducers: 3,
	}
	golden := []Pair{
		{"k1", 1828.75}, {"k2", 1665.0}, {"k4", 1719.0}, {"k0", 1800.25},
		{"k3", 1692.0}, {"k5", 1746.0}, {"k6", 1773.0},
	}
	goldenCounters := Counters{MapInputRecords: 128, MapOutputRecords: 128,
		ReduceInputKeys: 7, ReduceInputVals: 128, OutputRecords: 7, ShuffledBytes: 1280}

	mapOnly, err := Default().Run(&Job{Name: "boxed-map", Splits: splits, Mapper: mapper})
	if err != nil {
		t.Fatal(err)
	}
	ref := sumByKey(mapOnly.Pairs)
	for _, par := range []int{1, 4} {
		out, err := NewEngine(Config{Parallelism: par}).Run(typed)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if !reflect.DeepEqual(out.Pairs, golden) {
			t.Fatalf("par %d: pairs diverge from golden\n got: %v\nwant: %v", par, out.Pairs, golden)
		}
		if out.Counters != goldenCounters {
			t.Fatalf("par %d: counters diverge from golden\n got: %+v\nwant: %+v", par, out.Counters, goldenCounters)
		}
		checkAgainstReference(t, fmt.Sprintf("par %d", par), out.Pairs, ref)
	}
}

// TestTypedScalarRoundTrip pins the boxed dynamic type of every scalar lane:
// an emitted int must come back as int (not int64), an int64 as int64, a
// float64 as float64 — through map-only output, reducers, and combiners.
func TestTypedScalarRoundTrip(t *testing.T) {
	splits := typedTestSplits(1, 4, 1)
	job := &Job{
		Name:   "roundtrip",
		Splits: splits,
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
			ctx.EmitF64("f", 1.5)
			ctx.EmitI64("i", -7)
			ctx.EmitInt("n", 42)
			ctx.Emit("s", []float64{1, 2})
			return nil
		}),
	}
	out, err := Default().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Pairs[0].Value; v != any(1.5) {
		t.Fatalf("float64 round-trip: got %T %v", v, v)
	}
	if v := out.Pairs[1].Value; v != any(int64(-7)) {
		t.Fatalf("int64 round-trip: got %T %v", v, v)
	}
	if v := out.Pairs[2].Value; v != any(42) {
		t.Fatalf("int round-trip: got %T %v (must stay int, not int64)", v, v)
	}
	if v, ok := out.Pairs[3].Value.([]float64); !ok || len(v) != 2 {
		t.Fatalf("slice round-trip: got %T", out.Pairs[3].Value)
	}
}

// TestValuesAccessors exercises every Values accessor against a reducer's
// mixed-lane input.
func TestValuesAccessors(t *testing.T) {
	splits := typedTestSplits(1, 1, 1)
	job := &Job{
		Name:   "accessors",
		Splits: splits,
		Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
			ctx.EmitF64("k", 0.5)
			ctx.EmitI64("k", 9)
			ctx.EmitInt("k", 3)
			ctx.Emit("k", "str")
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
			if values.Len() != 4 {
				t.Errorf("Len = %d, want 4", values.Len())
			}
			if got := values.Float64(0); got != 0.5 {
				t.Errorf("Float64(0) = %v", got)
			}
			if got := values.Int64(1); got != 9 {
				t.Errorf("Int64(1) = %v", got)
			}
			if got := values.Int(2); got != 3 {
				t.Errorf("Int(2) = %v", got)
			}
			if got := values.Value(3); got != any("str") {
				t.Errorf("Value(3) = %v", got)
			}
			boxed := []any{values.Value(0), values.Value(1), values.Value(2), values.Value(3)}
			want := []any{0.5, int64(9), 3, "str"}
			if !reflect.DeepEqual(boxed, want) {
				t.Errorf("Value(0..3) = %#v, want %#v", boxed, want)
			}
			ctx.EmitInt(k, values.Len())
			return nil
		}),
	}
	out, err := Default().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out.Single("k"); !ok || v != any(4) {
		t.Fatalf("output = %v", out.Pairs)
	}
}

// TestTypedCombinerGolden pins a TypedCombiner job to the pairs and
// counters — CombineInput/CombineOutput and the post-combine ShuffledBytes
// included — that the engine produced for it before the typed plane
// replaced the []any combine surface, and checks the sums against a
// map-only run reduced in the test.
func TestTypedCombinerGolden(t *testing.T) {
	splits := typedTestSplits(3, 40, 2)
	key := func(g int) string { return fmt.Sprintf("k%d", g%5) }
	mapF64 := MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
		ctx.EmitF64(key(global), row[1])
		return nil
	})
	typed := &Job{
		Name: "combine", Splits: splits, Mapper: mapF64,
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
			sum := 0.0
			for i := 0; i < values.Len(); i++ {
				sum += values.Float64(i)
			}
			ctx.EmitF64(k, sum)
			return nil
		}),
		TypedCombiner: TypedCombinerFunc(func(k string, values Values, out *CombineEmit) error {
			sum := 0.0
			for i := 0; i < values.Len(); i++ {
				sum += values.Float64(i)
			}
			out.EmitF64(sum)
			return nil
		}),
		NumReducers: 2,
	}
	golden := []Pair{{"k0", 696.0}, {"k2", 720.0}, {"k4", 744.0}, {"k1", 708.0}, {"k3", 732.0}}
	goldenCounters := Counters{MapInputRecords: 120, MapOutputRecords: 120,
		CombineInput: 120, CombineOutput: 15, ReduceInputKeys: 5, ReduceInputVals: 15,
		OutputRecords: 5, ShuffledBytes: 150}

	out, err := Default().Run(typed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Pairs, golden) {
		t.Fatalf("typed combiner pairs diverge from golden\n got: %v\nwant: %v", out.Pairs, golden)
	}
	if out.Counters != goldenCounters {
		t.Fatalf("typed combiner counters diverge from golden\n got: %+v\nwant: %+v", out.Counters, goldenCounters)
	}
	mapOnly, err := Default().Run(&Job{Name: "combine-map", Splits: splits, Mapper: mapF64})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "combine", out.Pairs, sumByKey(mapOnly.Pairs))
}

// TestJobValidation pins that a Job names its code exactly one way: each
// rejected shape fails on every backend with an error naming the job.
func TestJobValidation(t *testing.T) {
	m := MapperFunc(func(ctx *TaskContext, global int, row []float64) error { return nil })
	nm := func() Mapper { return m }
	tred := TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error { return nil })
	tcb := TypedCombinerFunc(func(k string, values Values, out *CombineEmit) error { return nil })
	shapes := []struct {
		name string
		job  Job
	}{
		{"no-code", Job{}},
		{"mapper+newmapper", Job{Mapper: m, NewMapper: nm}},
		{"impl+mapper", Job{Impl: "conf-nocombine", Mapper: m}},
		{"impl+newmapper", Job{Impl: "conf-nocombine", NewMapper: nm}},
		{"impl+reducer", Job{Impl: "conf-nocombine", TypedReducer: tred}},
		{"impl+combiner", Job{Impl: "conf-nocombine", TypedCombiner: tcb}},
	}
	for _, backend := range BackendNames() {
		for _, sh := range shapes {
			job := sh.job
			job.Name = "shape-" + sh.name
			job.Splits = typedTestSplits(1, 4, 1)
			_, err := NewEngine(Config{Backend: backend, SpillDir: t.TempDir()}).Run(&job)
			if err == nil || !strings.Contains(err.Error(), job.Name) {
				t.Errorf("%s/%s: err = %v, want a rejection naming the job", backend, sh.name, err)
			}
		}
	}
}

// TestCombinerDropsAllValuesOfKey pins the empty-group contract: a combiner
// that folds every value of a key away must make the key invisible to the
// reducer — on both lanes, identically.
func TestCombinerDropsAllValuesOfKey(t *testing.T) {
	splits := typedTestSplits(2, 10, 1)
	mk := MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
		ctx.EmitInt(fmt.Sprintf("k%d", global%4), 1)
		return nil
	})
	seen := map[string]bool{}
	job := &Job{
		Name: "drop", Splits: splits, Mapper: mk,
		TypedCombiner: TypedCombinerFunc(func(k string, values Values, out *CombineEmit) error {
			if k == "k1" {
				return nil // fold the key away entirely
			}
			out.EmitInt(values.Len())
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
			seen[k] = true
			return nil
		}),
		NumReducers: 1, // single reducer, sequential: the seen map is safe
	}
	if _, err := NewEngine(Config{Parallelism: 1}).Run(job); err != nil {
		t.Fatal(err)
	}
	if seen["k1"] {
		t.Fatal("key k1 reached the reducer although the combiner dropped all its values")
	}
	if !seen["k0"] || !seen["k2"] || !seen["k3"] {
		t.Fatalf("surviving keys missing from reducer: %v", seen)
	}
}

// TestPoolReuseAcrossJobs runs many jobs back-to-back on one engine (the
// pools' steady state) and checks outputs stay identical run over run —
// with and without DebugPoisonPools, which would corrupt output loudly if
// any recycled buffer were still referenced.
func TestPoolReuseAcrossJobs(t *testing.T) {
	for _, poison := range []bool{false, true} {
		e := NewEngine(Config{Parallelism: 4, DebugPoisonPools: poison})
		var first *Output
		for iter := 0; iter < 5; iter++ {
			job := &Job{
				Name:   "steady",
				Splits: typedTestSplits(4, 25, 2),
				Mapper: MapperFunc(func(ctx *TaskContext, global int, row []float64) error {
					ctx.EmitF64(fmt.Sprintf("k%d", global%9), row[0])
					return nil
				}),
				TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
					sum := 0.0
					for i := 0; i < values.Len(); i++ {
						sum += values.Float64(i)
					}
					ctx.EmitF64(k, sum)
					return nil
				}),
				NumReducers: 3,
			}
			out, err := e.Run(job)
			if err != nil {
				t.Fatalf("poison=%v iter %d: %v", poison, iter, err)
			}
			if first == nil {
				first = out
				continue
			}
			if !reflect.DeepEqual(first.Pairs, out.Pairs) {
				t.Fatalf("poison=%v iter %d: output drifted across pooled runs", poison, iter)
			}
			if first.Counters != out.Counters {
				t.Fatalf("poison=%v iter %d: counters drifted across pooled runs", poison, iter)
			}
		}
	}
}
