package mr

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"p3cmr/internal/obs"
)

// Config tunes an Engine.
type Config struct {
	// Parallelism caps concurrently running task goroutines. Zero means
	// runtime.NumCPU().
	Parallelism int
	// NumReducers is the default reducer count for jobs that leave theirs
	// zero. The paper's cluster ran 112 reducers; locally this only affects
	// the cost model and partitioning, not correctness.
	NumReducers int
	// MaxAttempts is the per-task retry budget (Hadoop default 4), shared by
	// map and reduce tasks. Zero means 4.
	MaxAttempts int
	// Faults, when non-nil, injects deterministic failures and simulated
	// straggler delays into map, combine and reduce attempts. Injected
	// failures are retried up to MaxAttempts; real task errors are not (a
	// deterministic bug would fail every attempt anyway, and surfacing it
	// fast keeps tests honest). Plans must be pure and concurrency-safe —
	// see FaultPlan.
	Faults FaultPlan
	// Cost configures the simulated cluster cost model. Zero value disables
	// simulation (SimulatedSeconds stays 0).
	Cost CostModel
	// Tracer, when non-nil, receives structured span events: one job span
	// per Run (parented by Job.TraceParent), one task span per map/reduce
	// attempt, a shuffle span per reduce job, and point events for injected
	// faults, retries, stragglers and cancellations. Tracing is pure
	// observation — it cannot change job output, counters or simulated
	// seconds (pinned by the chaos trace-identity tests) — and a nil Tracer
	// costs nothing on the hot path (no clock reads, no allocations; pinned
	// by bench_test.go).
	Tracer obs.Tracer
	// Metrics, when non-nil, receives engine-level aggregates per job run:
	// mr_jobs_total, mr_map_input_records_total, mr_map_output_records_total,
	// mr_output_records_total, mr_shuffled_bytes_total, mr_task_retries_total,
	// mr_wasted_records_total, the mr_simulated_seconds_total gauge and the
	// mr_job_real_seconds histogram. Handles are resolved once in NewEngine,
	// so the per-job cost is a handful of atomic adds.
	Metrics *obs.Registry
	// DebugPoisonPools overwrites the engine's pooled shuffle buffers with
	// garbage markers as they are recycled. A buffer recycled while a stale
	// reference can still observe it then yields obviously-corrupt records
	// instead of stale-but-plausible ones, which the bit-identity chaos
	// oracles detect — the canary proving the pool lifecycle barriers (see
	// enginePools). Test/debug knob; leave off otherwise. The multiprocess
	// backend forwards the flag to its workers, whose pools poison the same
	// way.
	DebugPoisonPools bool
	// Backend selects the execution backend by name: "" or "inprocess" (the
	// typed-lane goroutine backend), "multiprocess" (worker OS processes
	// with disk-spilled shuffle; see backend_multiproc.go), or "simulated"
	// (single-goroutine sequential reference). All backends produce
	// bit-identical output, counters and ShuffledBytes for the same job and
	// fault plan (pinned by the conformance suite).
	Backend string
	// SpillDir is where the multiprocess backend creates its per-run spill
	// directory. Empty means os.TempDir(). Each Run makes (and removes) a
	// private subdirectory, so concurrent runs never collide.
	SpillDir string
	// TelemetrySample is the multiprocess backend's worker resource-sampler
	// cadence. Zero means 250ms. Worker telemetry as a whole rides the
	// Tracer: with a nil Tracer no telemetry is enabled and the worker wire
	// stream is byte-identical to a pre-telemetry build.
	TelemetrySample time.Duration
	// SpillThresholdBytes caps a multiprocess map worker's in-memory
	// shuffle buffer: when the buffered record bytes exceed it, every
	// bucket is spilled to disk as a sorted run and the buffers reset, so
	// map output never needs to fit in RAM. Zero means 64 MiB; 1 spills
	// after every record batch ("always spill"); math.MaxInt64 never spills
	// mid-task (final sorted runs are still written at task commit).
	// Ignored by the in-process and simulated backends, whose shuffle is
	// in-memory by design.
	SpillThresholdBytes int64
}

// engineMetrics caches the registry handles the engine updates at the end
// of every job, so Run never takes the registry mutex.
type engineMetrics struct {
	jobs, mapIn, mapOut, outRecs, shuffled, retries, wasted *obs.Counter
	simSeconds                                              *obs.Gauge
	jobReal                                                 *obs.Histogram
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		jobs:       r.Counter("mr_jobs_total"),
		mapIn:      r.Counter("mr_map_input_records_total"),
		mapOut:     r.Counter("mr_map_output_records_total"),
		outRecs:    r.Counter("mr_output_records_total"),
		shuffled:   r.Counter("mr_shuffled_bytes_total"),
		retries:    r.Counter("mr_task_retries_total"),
		wasted:     r.Counter("mr_wasted_records_total"),
		simSeconds: r.Gauge("mr_simulated_seconds_total"),
		jobReal:    r.Histogram("mr_job_real_seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60}),
	}
}

// Engine executes Jobs. It is safe for concurrent use by multiple
// goroutines; each Run is independent, but all Runs share one task
// semaphore, so Config.Parallelism is a true engine-wide cap on in-flight
// tasks even when several jobs execute concurrently (a Hadoop cluster's
// slot count, not a per-job budget).
type Engine struct {
	cfg Config
	// sem is the engine-wide counting semaphore: every map and reduce task
	// of every concurrent Run holds one slot while executing.
	sem chan struct{}
	// met caches metric handles when Config.Metrics is set.
	met *engineMetrics
	// pools recycles typed-plane shuffle buffers across jobs and tasks.
	pools *enginePools
	// backend executes the map/shuffle/reduce core (see Backend); backendErr
	// defers an unknown-name error from NewEngine to the first Run.
	backend    Backend
	backendErr error
	// TotalSimulated accumulates simulated seconds across all jobs run on
	// this engine, so a pipeline can report an end-to-end modeled runtime.
	mu             sync.Mutex
	totalSimulated float64
	jobsRun        int
	totals         Counters
	totalsWasted   Counters
	// lastProc holds the most recent multiprocess Run's process/spill
	// statistics (nil until a multiprocess job ran); see LastProcStats.
	lastProc *ProcStats
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	if cfg.NumReducers <= 0 {
		cfg.NumReducers = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	e := &Engine{cfg: cfg, sem: make(chan struct{}, cfg.Parallelism), pools: newEnginePools(cfg.DebugPoisonPools)}
	e.backend, e.backendErr = pickBackend(cfg.Backend)
	if cfg.Metrics != nil {
		e.met = newEngineMetrics(cfg.Metrics)
	}
	return e
}

// BackendName reports which backend this engine executes jobs on.
func (e *Engine) BackendName() string {
	if e.backend == nil {
		return e.cfg.Backend
	}
	return e.backend.Name()
}

// Default returns an engine with library defaults, suitable for tests and
// examples.
func Default() *Engine { return NewEngine(Config{}) }

// Cost returns the engine's configured cost model.
func (e *Engine) Cost() CostModel { return e.cfg.Cost }

// Tracer returns the engine's configured tracer (nil when tracing is off),
// so higher layers — the pipeline's phase and run spans — emit into the
// same sink the engine does.
func (e *Engine) Tracer() obs.Tracer { return e.cfg.Tracer }

// Metrics returns the engine's metrics registry (nil when disabled).
func (e *Engine) Metrics() *obs.Registry { return e.cfg.Metrics }

// TotalSimulatedSeconds reports the accumulated modeled runtime of all jobs
// run so far.
func (e *Engine) TotalSimulatedSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totalSimulated
}

// JobsRun reports how many jobs this engine executed.
func (e *Engine) JobsRun() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobsRun
}

// TotalCounters returns counters accumulated across all jobs. Only
// successful attempts contribute: failed-attempt work is tracked separately
// by TotalWasted, so these stay an exact description of the computation no
// matter how many faults were injected.
func (e *Engine) TotalCounters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totals
}

// TotalWasted returns the counters of failed task attempts accumulated
// across all jobs — work the modeled cluster performed and threw away.
func (e *Engine) TotalWasted() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totalsWasted
}

// ResetAccounting zeroes the accumulated simulated time, job count and
// counters.
func (e *Engine) ResetAccounting() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.totalSimulated = 0
	e.jobsRun = 0
	e.totals = Counters{}
	e.totalsWasted = Counters{}
}

// errInjectedFailure marks fault-injection failures so the retry loop can
// distinguish them from real mapper/reducer errors (which are not retried).
var errInjectedFailure = errors.New("mr: injected task failure")

// errTaskCancelled marks a task attempt aborted because a sibling task of
// the same Run failed permanently. It never becomes the job error — the
// sibling's failure, recorded first, does.
var errTaskCancelled = errors.New("mr: task cancelled by sibling failure")

// faultCharge accumulates the modeled price of faults over one task's
// attempt loop: the counters of failed attempts (work performed and thrown
// away) and the simulated straggler delay across all attempts.
type faultCharge struct {
	Wasted    Counters
	Straggler float64
}

// add folds another task's charge into f.
func (f *faultCharge) add(o faultCharge) {
	f.Wasted.Add(o.Wasted)
	f.Straggler += o.Straggler
}

// cancelled reports (without blocking) whether the run's cancel channel is
// closed.
func cancelled(cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// Run executes the job and collects its output.
func (e *Engine) Run(job *Job) (*Output, error) {
	if e.backendErr != nil {
		return nil, e.backendErr
	}
	job, rerr := resolveJob(job)
	if rerr != nil {
		return nil, rerr
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = e.cfg.NumReducers
	}
	mapOnly := job.TypedReducer == nil
	nb := numReducers
	if mapOnly {
		nb = 1
	}

	// Everything observability-related is gated on tr/e.met being non-nil:
	// an untraced engine takes no clock readings and allocates nothing here.
	tr := e.cfg.Tracer
	var jobSpan obs.SpanID
	var jobStart time.Time
	if tr != nil {
		jobSpan = obs.NewSpanID()
		tr.Begin(obs.Start{ID: jobSpan, Parent: job.TraceParent, Kind: obs.KindJob, Name: job.Name})
	}
	if tr != nil || e.met != nil {
		jobStart = obs.Now()
	}
	endJobErr := func(err error) {
		if tr != nil {
			tr.End(obs.End{ID: jobSpan, Kind: obs.KindJob, Name: job.Name,
				Outcome: obs.OutcomeError, Err: err.Error(),
				RealSeconds: obs.Since(jobStart).Seconds()})
		}
	}

	// Run-scoped cooperative cancellation: the first permanent task failure
	// closes cancelCh, and sibling tasks notice it between records, between
	// attempts, and while queued on the semaphore — so a doomed job stops
	// burning slots instead of limping to its own barrier (Hadoop kills
	// sibling attempts the same way when a job fails).
	cancelCh := make(chan struct{})
	var cancelOnce sync.Once
	var firstErr error
	var errOnce sync.Once
	setErr := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancelOnce.Do(func() { close(cancelCh) })
	}

	// The map/shuffle/reduce core is delegated to the configured backend
	// (in-process goroutines by default; see Backend). firstErr is read only
	// after a phase barrier (wg.Wait), which is what makes the unlocked read
	// safe — the same discipline the pre-seam engine used.
	rc := &runContext{
		e: e, job: job, mapOnly: mapOnly, nb: nb, numReducers: numReducers,
		jobSpan: jobSpan, cancelCh: cancelCh, setErr: setErr,
		firstErr: func() error { return firstErr },
	}
	outPairs, counters, fault, err := e.backend.execute(rc)
	if err != nil {
		endJobErr(err)
		return nil, err
	}

	out := &Output{Pairs: outPairs, Counters: counters, Wasted: fault.Wasted}
	out.SimulatedSeconds = e.cfg.Cost.jobSeconds(job, counters, fault, numReducers)
	e.mu.Lock()
	e.totalSimulated += out.SimulatedSeconds
	e.jobsRun++
	e.totals.Add(counters)
	e.totalsWasted.Add(fault.Wasted)
	e.mu.Unlock()
	if tr != nil {
		tr.End(obs.End{ID: jobSpan, Kind: obs.KindJob, Name: job.Name,
			Outcome:          obs.OutcomeOK,
			RealSeconds:      obs.Since(jobStart).Seconds(),
			SimulatedSeconds: out.SimulatedSeconds,
			Counters:         counters, Wasted: fault.Wasted,
			Retries: counters.TaskRetries})
	}
	if m := e.met; m != nil {
		m.jobs.Inc()
		m.mapIn.Add(counters.MapInputRecords)
		m.mapOut.Add(counters.MapOutputRecords)
		m.outRecs.Add(counters.OutputRecords)
		m.shuffled.Add(counters.ShuffledBytes)
		m.retries.Add(counters.TaskRetries)
		m.wasted.Add(fault.Wasted.MapInputRecords + fault.Wasted.ReduceInputVals)
		m.simSeconds.Add(out.SimulatedSeconds)
		m.jobReal.Observe(obs.Since(jobStart).Seconds())
	}
	return out, nil
}

// pointW emits a point event into the engine's tracer, attributed to a
// worker process when the multiprocess backend can pin it to one (worker ""
// otherwise). Callers gate on e.cfg.Tracer != nil so the untraced path pays
// nothing (not even the TaskPhase→string conversion).
func (e *Engine) pointW(span obs.SpanID, kind obs.PointKind, name string, task, attempt int, phase TaskPhase, seconds float64, worker string) {
	//lint:allow tracenil every caller gates on e.cfg.Tracer != nil before paying for this call's arguments
	e.cfg.Tracer.Point(obs.Point{Span: span, Kind: kind, Name: name,
		Task: task, Attempt: attempt, Phase: phase.String(), Seconds: seconds, Worker: worker})
}

// The fault decision points of a task attempt, one helper each. Every
// backend calls them at the same points of the attempt lifecycle — map
// before the record loop, combine after it, reduce before the key loop — so
// a FaultPlan is consumed identically everywhere. Each charges the plan's
// straggler delay (traced as a PointStraggler) and returns where the
// attempt dies; the caller decides what dying means (an injected error
// in-process, a SIGKILL in a worker).

// decideMap returns the map attempt's straggler charge and the record index
// before which it dies (-1: it survives the record loop).
func (e *Engine) decideMap(job string, task, attempt, rows int, span obs.SpanID, worker string) (float64, int) {
	if e.cfg.Faults == nil {
		return 0, -1
	}
	d := e.cfg.Faults.Decide(job, PhaseMap, task, attempt)
	e.traceStraggler(d, job, task, attempt, PhaseMap, span, worker)
	return d.StragglerSeconds, d.failAt(rows)
}

// decideCombine returns the combine pass's straggler charge and whether the
// attempt dies before the combiner runs.
func (e *Engine) decideCombine(job string, task, attempt int, span obs.SpanID, worker string) (float64, bool) {
	if e.cfg.Faults == nil {
		return 0, false
	}
	d := e.cfg.Faults.Decide(job, PhaseCombine, task, attempt)
	e.traceStraggler(d, job, task, attempt, PhaseCombine, span, worker)
	return d.StragglerSeconds, d.Fail
}

// decideReduce returns the reduce attempt's straggler charge and the count
// of consumed input records at which it dies (-1: never).
func (e *Engine) decideReduce(job string, task, attempt, records int, span obs.SpanID, worker string) (float64, int) {
	if e.cfg.Faults == nil {
		return 0, -1
	}
	d := e.cfg.Faults.Decide(job, PhaseReduce, task, attempt)
	e.traceStraggler(d, job, task, attempt, PhaseReduce, span, worker)
	return d.StragglerSeconds, d.failAt(records)
}

func (e *Engine) traceStraggler(d FaultDecision, job string, task, attempt int, phase TaskPhase, span obs.SpanID, worker string) {
	if d.StragglerSeconds > 0 && e.cfg.Tracer != nil {
		e.pointW(span, obs.PointStraggler, job, task, attempt, phase, d.StragglerSeconds, worker)
	}
}

// runTaskAttempts drives one task's attempt loop, shared by map and reduce
// tasks: injected failures are retried up to MaxAttempts with the failed
// attempt's counters diverted into the fault charge (never the job
// counters), real errors abort immediately, and the loop bails out between
// attempts when the run is cancelled. try returns the attempt's output, its
// counters, and its simulated straggler delay; it receives the attempt's
// span so fault decision sites can attach point events to it.
//
// When tracing is on, every attempt gets a KindTask span under parent (the
// job span) closed with its outcome: ok, fault (wasted counters attached),
// cancelled, or error. A fault that will be retried additionally emits a
// PointRetry on the job span; a task that gives up before starting an
// attempt emits a PointCancel.
//
// worker, when non-nil, names the worker process the just-finished attempt
// ran on (multiprocess backend); it is read after try returns, so the
// backend can bind a worker per attempt. In-process backends pass nil.
func runTaskAttempts[T any](e *Engine, job *Job, phase TaskPhase, taskID int, parent obs.SpanID, cancel <-chan struct{},
	worker func() string,
	try func(attempt int, span obs.SpanID) (T, Counters, float64, error)) (T, Counters, faultCharge, error) {
	var zero T
	var fc faultCharge
	var lastErr error
	var retries int64
	tr := e.cfg.Tracer
	for attempt := 0; attempt < e.cfg.MaxAttempts; attempt++ {
		if cancelled(cancel) {
			if tr != nil {
				e.pointW(parent, obs.PointCancel, job.Name, taskID, attempt, phase, 0, "")
			}
			return zero, Counters{}, fc, errTaskCancelled
		}
		var span obs.SpanID
		var began time.Time
		if tr != nil {
			span = obs.NewSpanID()
			tr.Begin(obs.Start{ID: span, Parent: parent, Kind: obs.KindTask,
				Name: job.Name, Task: taskID, Attempt: attempt, Phase: phase.String()})
			began = obs.Now()
		}
		out, c, straggler, err := try(attempt, span)
		fc.Straggler += straggler
		var onWorker string
		if tr != nil && worker != nil {
			onWorker = worker()
		}
		if err == nil {
			c.TaskRetries = retries
			if tr != nil {
				tr.End(obs.End{ID: span, Kind: obs.KindTask, Name: job.Name,
					Task: taskID, Attempt: attempt, Phase: phase.String(),
					Outcome:     obs.OutcomeOK,
					RealSeconds: obs.Since(began).Seconds(), SimulatedSeconds: straggler,
					Counters: c, Retries: retries, Worker: onWorker})
			}
			return out, c, fc, nil
		}
		lastErr = err
		if !errors.Is(err, errInjectedFailure) {
			if tr != nil {
				outcome := obs.OutcomeError
				if errors.Is(err, errTaskCancelled) {
					outcome = obs.OutcomeCancelled
				}
				tr.End(obs.End{ID: span, Kind: obs.KindTask, Name: job.Name,
					Task: taskID, Attempt: attempt, Phase: phase.String(),
					Outcome: outcome, Err: err.Error(),
					RealSeconds: obs.Since(began).Seconds(), SimulatedSeconds: straggler,
					Worker: onWorker})
			}
			return zero, Counters{}, fc, err
		}
		fc.Wasted.Add(c)
		retries++
		if tr != nil {
			tr.End(obs.End{ID: span, Kind: obs.KindTask, Name: job.Name,
				Task: taskID, Attempt: attempt, Phase: phase.String(),
				Outcome: obs.OutcomeFault, Err: err.Error(),
				RealSeconds: obs.Since(began).Seconds(), SimulatedSeconds: straggler,
				Wasted: c, Worker: onWorker})
			if attempt+1 < e.cfg.MaxAttempts {
				e.pointW(parent, obs.PointRetry, job.Name, taskID, attempt, phase, 0, "")
			}
		}
	}
	return zero, Counters{}, fc, fmt.Errorf("task failed after %d attempts: %w", e.cfg.MaxAttempts, lastErr)
}

// runMapTask executes one map task with retry on injected failures. The
// task's pooled mapState is acquired once for the whole attempt loop —
// retried attempts reset and reuse it (never returning it to the pool while
// the task lives) — and recycled here on failure/cancellation, when no one
// outside the task has ever observed it. On success the state transfers to
// the caller, which recycles it after the merge copies its records out.
func (e *Engine) runMapTask(job *Job, split *Split, mapOnly bool, nb, numReducers int, jobSpan obs.SpanID, cancel <-chan struct{}) (*mapState, Counters, faultCharge, error) {
	st := e.pools.getMapState(nb)
	out, c, fc, err := runTaskAttempts(e, job, PhaseMap, split.ID, jobSpan, cancel, nil, func(attempt int, span obs.SpanID) (*mapState, Counters, float64, error) {
		ac, straggler, err := e.tryMapTask(job, split, st, mapOnly, nb, attempt, span, cancel)
		return st, ac, straggler, err
	})
	if err != nil {
		e.pools.putMapState(st)
		return nil, c, fc, err
	}
	return out, c, fc, nil
}

// tryMapTask runs one in-process map attempt into st. An injected failure
// is an error here: the attempt's fault is traced and its partial counters
// go back to runTaskAttempts as wasted work.
func (e *Engine) tryMapTask(job *Job, split *Split, st *mapState, mapOnly bool, nb, attempt int, span obs.SpanID, cancel <-chan struct{}) (Counters, float64, error) {
	straggler, failAt := e.decideMap(job.Name, split.ID, attempt, split.NumRows(), span, "")
	c, phase, err := runMapAttempt(job, split, st, mapOnly, nb, failAt, cancel, func() bool {
		s, fail := e.decideCombine(job.Name, split.ID, attempt, span, "")
		straggler += s
		return fail
	}, 0, nil)
	if errors.Is(err, errInjectedFailure) && e.cfg.Tracer != nil {
		e.pointW(span, obs.PointFault, job.Name, split.ID, attempt, phase, 0, "")
	}
	return c, straggler, err
}

// runMapAttempt is the body of one map attempt on every backend: Setup, the
// record loop, Cleanup, then the optional combiner, emitting into st (records
// land pre-partitioned in st.buckets with task-locally interned keys; see
// TaskContext.emitRec). It returns errInjectedFailure, with the phase it
// died in, when the attempt reaches record failAt (-1: never) or when
// combineFault — consulted only once the record loop survived — says the
// combine pass dies. cancel is polled every 64 records (nil: never
// cancelled).
//
// spill, when non-nil, is the multiprocess worker's mid-task spill: the
// emit path then tracks the buffered bytes, and spill runs whenever they
// reach spillLimit. The in-process path passes nil and pays one predictable
// branch per record for it.
func runMapAttempt(job *Job, split *Split, st *mapState, mapOnly bool, nb, failAt int, cancel <-chan struct{},
	combineFault func() bool, spillLimit int64, spill func() error) (Counters, TaskPhase, error) {
	var c Counters
	// A retried attempt starts from an empty state; a fresh state comes
	// reset from the pool, so this only walks empty buffers.
	st.reset(false)
	mapper := job.Mapper
	if job.NewMapper != nil {
		mapper = job.NewMapper()
	}
	// Shuffle accounting is folded into emit so records are traversed once;
	// with a combiner the charge moves to combineBucket instead, because
	// only post-combine records cross the (modeled) network.
	combine := job.TypedCombiner != nil && !mapOnly
	trackBuf := spill != nil
	ctx := &TaskContext{
		JobName:      job.Name,
		TaskID:       split.ID,
		Split:        split,
		cache:        job.Cache,
		ms:           st,
		counters:     &c,
		numReducers:  nb,
		chargeOnEmit: !combine,
		trackBuf:     trackBuf,
	}
	if err := mapper.Setup(ctx); err != nil {
		return c, PhaseMap, err
	}
	n := split.NumRows()
	for i := 0; i < n; i++ {
		if i == failAt {
			return c, PhaseMap, errInjectedFailure
		}
		// Sampled cancellation poll: cheap enough to leave the record loop's
		// throughput alone, frequent enough that a cancelled task yields its
		// slot within a few dozen records.
		if i&63 == 0 && cancelled(cancel) {
			return c, PhaseMap, errTaskCancelled
		}
		c.MapInputRecords++
		if err := mapper.Map(ctx, split.Offset+i, split.Row(i)); err != nil {
			return c, PhaseMap, err
		}
		if trackBuf && st.bufBytes >= spillLimit {
			if err := spill(); err != nil {
				return c, PhaseMap, err
			}
		}
	}
	if n == failAt {
		return c, PhaseMap, errInjectedFailure
	}
	if err := mapper.Cleanup(ctx); err != nil {
		return c, PhaseMap, err
	}
	if combine {
		if combineFault() {
			return c, PhaseCombine, errInjectedFailure
		}
		for r := range st.buckets {
			if err := combineBucket(job.TypedCombiner, st, r, &c); err != nil {
				return c, PhaseCombine, err
			}
		}
	}
	return c, PhaseMap, nil
}

// combineBucket folds one reducer-bound buffer through the combiner via the
// counting group over task-local key ids — no map[string][]any staging and
// no boxing. It charges ShuffledBytes for the surviving records (the
// combiner's whole point is that only its output crosses the network), then
// swaps the combined output in as the new bucket, recycling the old
// bucket's storage as the next bucket's output buffer.
func combineBucket(cb TypedCombiner, st *mapState, r int, c *Counters) error {
	bucket := st.buckets[r]
	if len(bucket) == 0 {
		return nil
	}
	c.CombineInput += int64(len(bucket))
	out := st.combineOut[:0]
	ce := CombineEmit{out: &out, c: c}
	err := groupLocal(bucket, &st.tab, &st.sc, func(id uint32, grouped []rec) error {
		ce.key = id
		ce.keyLen = int64(len(st.tab.keys[id]))
		return cb.CombineTyped(st.tab.keys[id], Values{recs: grouped}, &ce)
	})
	if err != nil {
		return err
	}
	st.buckets[r] = out
	st.combineOut = bucket[:0]
	return nil
}

// runReduceTask executes one reduce task with the same retry loop as map
// tasks: a failed attempt is re-run from its immutable partition run. The
// task's pooled group scratch is shared across its attempts (each attempt
// re-scatters from the run) and recycled when the attempt loop ends —
// nothing outside the task ever sees it.
func (e *Engine) runReduceTask(job *Job, taskID int, run []rec, keys []string, jobSpan obs.SpanID, cancel <-chan struct{}) ([]Pair, Counters, faultCharge, error) {
	sc := e.pools.getScratch()
	out, c, fc, err := runTaskAttempts(e, job, PhaseReduce, taskID, jobSpan, cancel, nil, func(attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
		return e.tryReduceTask(job, taskID, run, keys, sc, attempt, span, cancel)
	})
	e.pools.putScratch(sc)
	return out, c, fc, err
}

// tryReduceTask groups a partition run by key (sorted, as Hadoop
// guarantees) and invokes the reducer. Grouping is the counting sort of
// groupRun over dense partition-local ids: no key string is hashed or
// compared, and stability keeps value order deterministic (map-task order).
// An injected failure discards the attempt's partial output and counters
// exactly like a dying Hadoop reduce attempt; here it is traced and
// returned as an error.
func (e *Engine) tryReduceTask(job *Job, taskID int, run []rec, keys []string, sc *groupScratch, attempt int, span obs.SpanID, cancel <-chan struct{}) ([]Pair, Counters, float64, error) {
	straggler, failAt := e.decideReduce(job.Name, taskID, attempt, len(run), span, "")
	a := newReduceAttempt(job, taskID, failAt, cancel)
	if err := a.done(groupRun(run, keys, sc, a.key)); err != nil {
		if errors.Is(err, errInjectedFailure) && e.cfg.Tracer != nil {
			e.pointW(span, obs.PointFault, job.Name, taskID, attempt, PhaseReduce, 0, "")
		}
		return nil, a.c, straggler, err
	}
	return a.out, a.c, straggler, nil
}

// reduceAttempt is the per-key body of one reduce attempt on every backend,
// fed by groupRun in-process and by mergeSegments in a worker. It counts
// the attempt's input, polls cancellation, and stops the key loop at the
// plan-chosen consumed-records threshold failAt (-1: never).
type reduceAttempt struct {
	ctx      TaskContext
	reducer  TypedReducer
	out      []Pair
	c        Counters
	failAt   int
	consumed int
	cancel   <-chan struct{}
}

func newReduceAttempt(job *Job, taskID, failAt int, cancel <-chan struct{}) *reduceAttempt {
	a := &reduceAttempt{reducer: job.TypedReducer, failAt: failAt, cancel: cancel}
	a.ctx = TaskContext{JobName: job.Name, TaskID: taskID, cache: job.Cache, outPairs: &a.out}
	return a
}

func (a *reduceAttempt) dying() bool { return a.failAt >= 0 && a.consumed >= a.failAt }

// key reduces one key's grouped values.
func (a *reduceAttempt) key(k string, grouped []rec) error {
	if a.dying() {
		return errInjectedFailure
	}
	if cancelled(a.cancel) {
		return errTaskCancelled
	}
	a.consumed += len(grouped)
	a.c.ReduceInputKeys++
	a.c.ReduceInputVals += int64(len(grouped))
	return a.reducer.ReduceTyped(&a.ctx, k, Values{recs: grouped})
}

// done returns the key loop's error, or errInjectedFailure when the
// threshold falls at the very end (FailFrac ≈ 1): the attempt then dies
// after its last key, before its output is committed.
func (a *reduceAttempt) done(err error) error {
	if err == nil && a.dying() {
		return errInjectedFailure
	}
	return err
}
