package main

// metricDef declares one reported metric. BENCHMARK.json repeats name,
// unit, better and bound; the tests keep the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen (end-to-end metrics only).
	bound float64
	// moves names the end-to-end metric a per-layer metric should move, and
	// on the workload where it matters most (in parentheses: the control).
	moves, on string
}

// endToEnd metrics are measured with tracing off, over untraced clusterings.
// The time bounds are the widest allowed because on the shared 2-vCPU VM
// the benchmark was built on, the median run time of one workload drifts
// between invocations minutes apart: the quartile spread over ten
// invocations was 3-14% of the median, and CPU time drifts with it, so the
// machine, not scheduling, gets slower. Memory, allocation and E4SC repeat
// within 1%.
var endToEnd = []metricDef{
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "points_per_s", unit: "points/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.05},
	{name: "alloc_mb", unit: "MiB", better: "lower", bound: 0.05},
	{name: "e4sc", unit: "ratio", better: "higher", bound: 0.05},
}

const (
	allWorkloads = "all"
	mvbOnly      = "mvb-200k (light-*: absent)"
)

// perLayer metrics come from the traced clustering, the extra runs of a
// --trace 1 invocation and the layer probes.
var perLayer = []metricDef{
	{name: "dataset.read_s", unit: "s", better: "lower", moves: "setup_s", on: "light-wide (all)"},
	{name: "dataset.read_mb_per_s", unit: "MiB/s", better: "higher", moves: "setup_s", on: "light-wide (all)"},

	{name: "core.histograms_s", unit: "s", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "core.core_generation_s", unit: "s", better: "lower", moves: "run_s", on: "light-200k, light-wide"},
	{name: "core.redundancy_filter_s", unit: "s", better: "lower", moves: "run_s", on: "light-200k, light-wide"},
	{name: "core.light_membership_s", unit: "s", better: "lower", moves: "run_s", on: "light-* (mvb-200k: absent)"},
	{name: "core.em_s", unit: "s", better: "lower", moves: "run_s", on: mvbOnly},
	{name: "core.outlier_detection_s", unit: "s", better: "lower", moves: "run_s", on: mvbOnly},
	{name: "core.attribute_inspection_s", unit: "s", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "core.tightening_s", unit: "s", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "core.outside_phase_s", unit: "s", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "core.driver_self_s", unit: "s", better: "lower", moves: "run_s", on: "light-200k (mvb-200k)"},
	{name: "core.jobs", unit: "count", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "core.candidates_tested", unit: "count", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "core.cores", unit: "count", better: "higher", moves: "e4sc", on: allWorkloads},
	{name: "core.levels_truncated", unit: "count", better: "lower", moves: "e4sc", on: allWorkloads},

	{name: "mr.task_attempts", unit: "count", better: "lower", moves: "alloc_mb", on: "light-wide (all)"},
	{name: "mr.map_in_records", unit: "count", better: "lower", moves: "alloc_mb", on: "light-wide (all)"},
	{name: "mr.shuffled_bytes", unit: "B", better: "lower", moves: "alloc_mb", on: "light-wide (all)"},
	{name: "mr.retries", unit: "count", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "mr.wasted_records", unit: "count", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "mr.task_busy_s", unit: "s", better: "lower", moves: "cpu_s", on: "mvb-200k (light-200k)"},
	{name: "mr.slot_utilization", unit: "ratio", better: "higher", moves: "run_s", on: "mvb-200k (light-200k)"},
	{name: "mr.task_skew_max", unit: "ratio", better: "lower", moves: "run_s", on: "mvb-200k (light-200k)"},
	{name: "mr.noop_ns_per_record", unit: "ns", better: "lower", moves: "run_s", on: "light-200k (mvb-200k)"},
	{name: "mr.p1_run_s", unit: "s", better: "lower", moves: "run_s", on: allWorkloads},
	{name: "mr.parallel_efficiency", unit: "ratio", better: "higher", moves: "run_s", on: allWorkloads},

	{name: "signature.rssc_query_ns", unit: "ns", better: "lower", moves: "run_s", on: "light-200k, light-wide (mvb-200k)"},

	{name: "em.iterations", unit: "count", better: "lower", moves: "run_s", on: mvbOnly},
	{name: "em.iteration_s", unit: "s", better: "lower", moves: "run_s", on: mvbOnly},
	{name: "em.responsibilities_ns", unit: "ns", better: "lower", moves: "run_s", on: mvbOnly},

	{name: "linalg.quadform_ns", unit: "ns", better: "lower", moves: "run_s", on: mvbOnly},
	{name: "linalg.quadform_mflops", unit: "MFLOP/s", better: "higher", moves: "run_s", on: mvbOnly},

	{name: "outlier.outliers", unit: "count", better: "lower", moves: "e4sc", on: "mvb-200k (light-*)"},

	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "run_s", on: allWorkloads},

	{name: "obs.spans", unit: "count", better: "lower", moves: "none", on: allWorkloads},
	{name: "obs.trace_overhead_frac", unit: "ratio", better: "lower", moves: "none", on: allWorkloads},

	{name: "error_rate", unit: "ratio", better: "lower", moves: "all", on: allWorkloads},
}

// absentOn lists the per-layer metrics a workload's pipeline has no layer
// for; they are reported as 0 and named on the "absent" line.
func absentOn(w workload) []string {
	if w.full() {
		return []string{"core.light_membership_s"}
	}
	return []string{
		"core.em_s", "core.outlier_detection_s",
		"em.iterations", "em.iteration_s", "em.responsibilities_ns",
		"linalg.quadform_ns", "linalg.quadform_mflops",
	}
}

// phaseMetric maps the pipeline's phase span names to metric names.
var phaseMetric = map[string]string{
	"histograms":           "core.histograms_s",
	"core-generation":      "core.core_generation_s",
	"redundancy-filter":    "core.redundancy_filter_s",
	"light-membership":     "core.light_membership_s",
	"em":                   "core.em_s",
	"outlier-detection":    "core.outlier_detection_s",
	"attribute-inspection": "core.attribute_inspection_s",
	"tightening":           "core.tightening_s",
}
