// Package reducermut is the seeded corpus for the reducermut analyzer. It
// defines local stand-ins for the mr package's typed reducer shapes (the
// analyzer is name/shape-based, so the corpus needs no engine import) and
// seeds each forbidden write: assignment through a shipped slice, writes
// through aliased element references, pointer-field mutation, append into
// the shared backing array, and emitting an alias of shuffled data.
package reducermut

type TaskContext struct{}

func (*TaskContext) Emit(key string, value any) {}

type Values struct{}

func (Values) Len() int        { return 0 }
func (Values) Value(i int) any { return nil }

type CombineEmit struct{}

func (*CombineEmit) Emit(value any) {}

type TypedReducerFunc func(ctx *TaskContext, key string, values Values) error

type TypedCombinerFunc func(key string, values Values, out *CombineEmit) error

type Job struct {
	TypedReducer  TypedReducerFunc
	TypedCombiner TypedCombinerFunc
}

type clobberReducer struct{}

func (clobberReducer) ReduceTyped(ctx *TaskContext, key string, values Values) error {
	values.Value(0).([]any)[0] = nil // want "reducer assigns through a shared shuffled value"
	return nil
}

type scaleReducer struct{}

func (scaleReducer) ReduceTyped(ctx *TaskContext, key string, values Values) error {
	for i := 0; i < values.Len(); i++ {
		vec := values.Value(i).([]float64)
		vec[0] *= 2 // want "reducer assigns through a shared shuffled value"
	}
	return nil
}

type acc struct{ n int }

type bumpCombiner struct{}

func (bumpCombiner) CombineTyped(key string, values Values, out *CombineEmit) error {
	for i := 0; i < values.Len(); i++ {
		p := values.Value(i).(*acc)
		p.n++ // want "reducer writes a field through shared shuffled data"
	}
	return nil
}

type leakReducer struct{}

func (leakReducer) ReduceTyped(ctx *TaskContext, key string, values Values) error {
	vec := values.Value(0).([]float64)
	ctx.Emit(key, vec) // want "reducer emits an alias of a shared shuffled value"
	return nil
}

var _ = TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
	vec := values.Value(0).([]float64)
	vec = append(vec, 1) // want "append to an alias of a shared shuffled value"
	_ = vec
	return nil
})

// foldInPlace is the sumVectors reducer with the copy dropped: it folds
// every count vector into the first one and emits it.
var _ = TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
	first := values.Value(0).([]int64)
	for i := 1; i < values.Len(); i++ {
		for j, c := range values.Value(i).([]int64) {
			first[j] += c // want "reducer assigns through a shared shuffled value"
		}
	}
	ctx.Emit(key, first) // want "reducer emits an alias of a shared shuffled value"
	return nil
})

var _ = TypedCombinerFunc(func(key string, values Values, out *CombineEmit) error {
	v := values.Value(0)
	vec := v.([]float64)
	out.Emit(vec) // want "reducer emits an alias of a shared shuffled value"
	return nil
})

func badJobLiteral() Job {
	return Job{
		TypedReducer: func(ctx *TaskContext, key string, values Values) error {
			values.Value(0).([]int64)[0] = 1 // want "reducer assigns through a shared shuffled value"
			return nil
		},
	}
}

type minmaxReducer struct{}

func (minmaxReducer) ReduceTyped(ctx *TaskContext, key string, values Values) error {
	// The sanctioned pattern: value-type asserts copy, accumulation is
	// fresh state, and the emitted aggregate shares nothing.
	agg := values.Value(0).([2]float64)
	for i := 1; i < values.Len(); i++ {
		mm := values.Value(i).([2]float64)
		if mm[0] < agg[0] {
			agg[0] = mm[0]
		}
		if mm[1] > agg[1] {
			agg[1] = mm[1]
		}
	}
	ctx.Emit(key, agg)
	return nil
}

var _ = TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
	// The copy pattern: reading through an alias without writing is fine,
	// as is emitting a freshly built copy.
	first := values.Value(0).([]int64)
	agg := make([]int64, len(first))
	copy(agg, first)
	for i := 1; i < values.Len(); i++ {
		for j, c := range values.Value(i).([]int64) {
			agg[j] += c
		}
	}
	ctx.Emit(key, agg)
	return nil
})

func notAReducer(values Values) {
	// Same parameter type but neither a ReduceTyped/CombineTyped method nor
	// a TypedReducerFunc/Job literal: out of the contract's scope.
	values.Value(0).([]int64)[0] = 1
}
