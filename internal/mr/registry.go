package mr

import (
	"fmt"
	"sort"
	"sync"
)

// The job-impl registry names executable job code so a Job can be described
// by data alone: an Impl name plus an opaque Spec blob. That is what lets
// the multiprocess backend run a job inside a worker OS process — closures
// cannot cross a process boundary, but a registered builder compiled into
// the binary can, and the re-exec'd worker resolves the same name to the
// same code.
//
// The in-process and simulated backends resolve Impl too (resolveJob), so
// one registered job definition runs identically on every backend — which
// is exactly what the conformance suite exercises.

// JobFuncs bundles the executable pieces of a Job, as produced by a
// registered impl builder. Field semantics match the Job fields of the same
// names.
type JobFuncs struct {
	Mapper        Mapper
	NewMapper     func() Mapper
	TypedReducer  TypedReducer
	TypedCombiner TypedCombiner
}

var (
	implMu  sync.RWMutex
	implReg = map[string]func(spec []byte) (JobFuncs, error){}
)

// RegisterJobImpl registers a named job implementation. The builder is
// called with the Job's Spec blob each time a job referencing the impl is
// resolved — in the driver process and again inside every worker process —
// so it must be pure: same spec, same behavior. Registration typically
// happens in an init function so drivers and re-exec'd workers agree on the
// registry contents. Registering an empty name or a name twice panics
// (programmer error, and silently replacing an impl would make worker and
// driver disagree).
func RegisterJobImpl(name string, build func(spec []byte) (JobFuncs, error)) {
	if name == "" || build == nil {
		panic("mr: RegisterJobImpl with empty name or nil builder")
	}
	implMu.Lock()
	defer implMu.Unlock()
	if _, dup := implReg[name]; dup {
		panic(fmt.Sprintf("mr: RegisterJobImpl(%q) called twice", name))
	}
	implReg[name] = build
}

// RegisteredJobImpls returns the registered impl names, sorted.
func RegisteredJobImpls() []string {
	implMu.RLock()
	defer implMu.RUnlock()
	names := make([]string, 0, len(implReg))
	for name := range implReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildImpl resolves an impl name to its JobFuncs.
func buildImpl(name string, spec []byte) (JobFuncs, error) {
	implMu.RLock()
	build := implReg[name]
	implMu.RUnlock()
	if build == nil {
		return JobFuncs{}, fmt.Errorf("mr: job impl %q not registered (have %v)", name, RegisteredJobImpls())
	}
	return build(spec)
}

// resolveJob checks that a Job names its code exactly one way — Impl,
// Mapper or NewMapper — and materializes an Impl reference into concrete
// funcs, returning a shallow copy so the caller's Job is never mutated. An
// Impl job may not also carry a reducer or combiner: the registered builder
// supplies them, and a second source would run differently per backend.
func resolveJob(job *Job) (*Job, error) {
	if job.Impl != "" {
		if job.Mapper != nil || job.NewMapper != nil || job.TypedReducer != nil || job.TypedCombiner != nil {
			return nil, fmt.Errorf("mr: job %q sets Impl %q and code fields; name the job's code one way", job.Name, job.Impl)
		}
		funcs, err := buildImpl(job.Impl, job.Spec)
		if err != nil {
			return nil, fmt.Errorf("mr: job %q: %w", job.Name, err)
		}
		j := *job
		j.Mapper = funcs.Mapper
		j.NewMapper = funcs.NewMapper
		j.TypedReducer = funcs.TypedReducer
		j.TypedCombiner = funcs.TypedCombiner
		job = &j
	}
	if (job.Mapper == nil) == (job.NewMapper == nil) {
		return nil, fmt.Errorf("mr: job %q must set exactly one of Impl, Mapper or NewMapper", job.Name)
	}
	return job, nil
}
