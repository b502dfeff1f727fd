package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// WriteText renders the analysis as text tables, one block per run;
// timeline adds a worker-occupancy gantt against the critical path.
func (a *Analysis) WriteText(w io.Writer, timeline bool) error {
	fmt.Fprintf(w, "trace: %d events, %d spans, %d root span(s)\n", a.Events, a.Spans, len(a.Runs))
	for i := range a.Runs {
		if err := writeRun(w, &a.Runs[i], timeline); err != nil {
			return err
		}
	}
	return nil
}

// writeRun renders one run. Its tables share one tabwriter: the blank line
// before each table ends the previous table's column blocks, so each table
// aligns on its own.
func writeRun(w io.Writer, r *RunAnalysis, timeline bool) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "\n=== %s %q: %s, %.3f s wall, %.3f s simulated ===\n",
		r.Kind, r.Name, r.Outcome, r.WallSeconds, r.SimulatedSeconds)
	if r.Err != "" {
		fmt.Fprintf(tw, "error: %s\n", r.Err)
	}
	var runs int
	var retries, wasted int64
	for _, j := range r.Jobs {
		runs += j.Runs
		retries += j.Counters.TaskRetries
		wasted += j.WastedRecords
	}
	fmt.Fprintf(tw, "%d jobs, %d task attempts (%d faulted, %d cancelled), %d retries, %d wasted records\n",
		runs, r.TaskAttempts, r.Faults, r.Cancels, retries, wasted)

	if len(r.Phases) > 0 {
		fmt.Fprintln(tw, "\nphase\twall s\tsim s\tmap in\tshuffled B\tretries\tjobs\ttasks")
		for _, p := range r.Phases {
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%d\t%d\t%d\t%d\t%d\n",
				p.Name, p.WallSeconds, p.SimulatedSeconds, p.MapIn, p.ShuffledBytes,
				p.Retries, p.Jobs, p.Tasks)
		}
	}

	if len(r.Jobs) > 0 {
		fmt.Fprintln(tw, "\njob\truns\tmap in\tmap out\tred keys\tred vals\tout\tshuffled B\tretries\twasted rec\tsim s\twall s")
		for _, j := range r.Jobs {
			c := j.Counters
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%.3f\n",
				j.Job, j.Runs, c.MapInputRecords, c.MapOutputRecords,
				c.ReduceInputKeys, c.ReduceInputVals, c.OutputRecords, c.ShuffledBytes,
				c.TaskRetries, j.WastedRecords, j.SimulatedSeconds, j.WallSeconds)
		}
	}

	if len(r.CriticalPath) > 0 {
		fmt.Fprintln(tw, "\ncritical path\tspan\tstart s\tdur s\tself s")
		for _, s := range r.CriticalPath {
			id := s.Name
			if s.Task != "" {
				id += " task " + s.Task
			}
			if s.Phase != "" && s.Kind != "phase" {
				id += " [" + s.Phase + "]"
			}
			fmt.Fprintf(tw, "%s%s\t%s\t%.3f\t%.3f\t%.3f\n",
				strings.Repeat("  ", s.Depth), s.Kind, id, s.StartS, s.DurationS, s.SelfSeconds)
		}
	}

	if len(r.Skew) > 0 {
		fmt.Fprintln(tw, "\nskew (job/phase)\ttasks\tmedian s\tp90 s\tmax s\tmax/median\tslowest")
		for _, s := range r.Skew {
			fmt.Fprintf(tw, "%s/%s\t%d\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n",
				s.Job, s.Phase, s.Tasks, s.MedianS, s.P90S, s.MaxS, s.Skew, s.SlowestID)
		}
	}

	if len(r.Stragglers) > 0 {
		fmt.Fprintln(tw, "\nstragglers (job/phase)\tcount\tsim s charged")
		for _, s := range r.Stragglers {
			fmt.Fprintf(tw, "%s/%s\t%d\t%.3f\n", s.Job, s.Phase, s.Count, s.Seconds)
		}
	}

	if len(r.RetryWaste) > 0 {
		fmt.Fprintln(tw, "\nretry waste (job)\tfault attempts\twall s\twasted records")
		for _, s := range r.RetryWaste {
			fmt.Fprintf(tw, "%s\t%d\t%.4f\t%d\n", s.Job, s.FaultAttempts, s.WallSeconds, s.WastedRecords)
		}
	}

	if len(r.Workers) > 0 {
		fmt.Fprintln(tw, "\nworkers\tattempts\tfaults\twall s\tfault wall s\tstraggler s\twasted records")
		for _, s := range r.Workers {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\t%.4f\t%.3f\t%d\n",
				s.Worker, s.Attempts, s.Faults, s.WallSeconds, s.FaultWallSeconds,
				s.StragglerSeconds, s.WastedRecords)
		}
	}

	if hasTelemetry(r.Workers) {
		fmt.Fprintln(tw, "\nworker telemetry\tsamples\tcpu s\tutil\tpeak rss B\tpeak queue B\tspill B\tsteps")
		for _, s := range r.Workers {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.2f\t%d\t%d\t%d\t%s\n",
				s.Worker, s.Samples, s.CPUSeconds, s.Utilization,
				s.PeakRSSBytes, s.PeakQueueBytes, s.SpillBytes, stepSummary(s.StepSeconds))
		}
	}

	if len(r.Classified) > 0 {
		fmt.Fprintln(tw, "\nstragglers classified\ttask\tworker\twall s\tmedian s\tinput ratio\tutil\tclass")
		for _, c := range r.Classified {
			fmt.Fprintf(tw, "%s/%s\t%s\t%s\t%.4f\t%.4f\t%.2f\t%.2f\t%s\n",
				c.Job, c.Phase, c.Task, c.Worker, c.Seconds, c.MedianS,
				c.InputRatio, c.Utilization, c.Class)
		}
	}

	if len(r.Convergence) > 0 {
		fmt.Fprintln(tw, "\nconvergence\tpoints\tfirst\tlast\ttrend")
		for _, c := range r.Convergence {
			first := c.Points[0].Value
			last := c.Points[len(c.Points)-1].Value
			fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%s\n",
				c.Name, len(c.Points), first, last, sparkline(c.Points))
		}
	}

	if timeline {
		writeTimeline(tw, r)
	}

	if len(r.Slowest) > 0 {
		fmt.Fprintln(tw, "\nslowest attempts\tjob\tphase\ttask\twall s\toutcome\tstraggler s")
		for i, s := range r.Slowest {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%.4f\t%s\t%.3f\n",
				i+1, s.Job, s.Phase, s.Task, s.Seconds, s.Outcome, s.Straggle)
		}
	}
	return tw.Flush()
}

// hasTelemetry reports whether any worker row carries sampler- or
// step-derived data (i.e. the trace came from a telemetry-enabled run).
func hasTelemetry(rows []WorkerRow) bool {
	for _, r := range rows {
		if r.Samples > 0 || len(r.StepSeconds) > 0 {
			return true
		}
	}
	return false
}

// stepSummary renders a worker's per-step seconds as "name=1.2s name=0.3s"
// in step-name order.
func stepSummary(steps map[string]float64) string {
	if len(steps) == 0 {
		return "-"
	}
	names := make([]string, 0, len(steps))
	for n := range steps {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%.3fs", n, steps[n])
	}
	return out
}

// sparkChars is the 8-level vertical bar ramp of the convergence trend
// column.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders one metric series as a fixed-height bar ramp, scaled to
// the series' own min..max. A flat series renders as a mid-level line.
func sparkline(pts []ConvergencePoint) string {
	if len(pts) == 0 {
		return ""
	}
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		if p.Value < lo {
			lo = p.Value
		}
		if p.Value > hi {
			hi = p.Value
		}
	}
	var b strings.Builder
	for _, p := range pts {
		i := len(sparkChars) / 2
		if hi > lo {
			i = int((p.Value - lo) / (hi - lo) * float64(len(sparkChars)-1))
		}
		b.WriteRune(sparkChars[i])
	}
	return b.String()
}

// timelineWidth is the column budget of the -timeline gantt.
const timelineWidth = 64

// writeTimeline renders worker-occupancy lanes against the driver critical
// path. Lane characters: 'm' map attempt, 'r' reduce attempt, 'x' faulted
// attempt, 'c' cancelled attempt, '.' idle. The "crit" lane marks each
// critical-path span with the upper-cased initial of its kind (R un, P hase,
// J ob, T ask).
func writeTimeline(w io.Writer, r *RunAnalysis) {
	if len(r.Timeline) == 0 {
		fmt.Fprintln(w, "\ntimeline: no worker-attributed attempts in this trace")
		return
	}
	t0, t1 := r.Timeline[0].Intervals[0].StartS, 0.0
	for _, s := range r.CriticalPath {
		if s.StartS < t0 {
			t0 = s.StartS
		}
		if s.EndS > t1 {
			t1 = s.EndS
		}
	}
	for _, lane := range r.Timeline {
		for _, iv := range lane.Intervals {
			if iv.StartS < t0 {
				t0 = iv.StartS
			}
			if iv.EndS > t1 {
				t1 = iv.EndS
			}
		}
	}
	if t1 <= t0 {
		t1 = t0 + 1e-9
	}
	scale := float64(timelineWidth) / (t1 - t0)
	col := func(ts float64) int {
		c := int((ts - t0) * scale)
		if c < 0 {
			c = 0
		}
		if c > timelineWidth-1 {
			c = timelineWidth - 1
		}
		return c
	}
	fill := func(lane []byte, startS, endS float64, ch byte) {
		lo, hi := col(startS), col(endS)
		for i := lo; i <= hi; i++ {
			lane[i] = ch
		}
	}
	blank := func() []byte {
		lane := make([]byte, timelineWidth)
		for i := range lane {
			lane[i] = '.'
		}
		return lane
	}

	fmt.Fprintf(w, "\ntimeline %.3f .. %.3f s (1 col = %.1f ms; m=map r=reduce x=fault c=cancelled)\n",
		t0, t1, (t1-t0)/float64(timelineWidth)*1000)
	crit := blank()
	for _, s := range r.CriticalPath {
		ch := byte('?')
		if s.Kind != "" {
			ch = s.Kind[0] &^ 0x20 // upper-case initial
		}
		fill(crit, s.StartS, s.EndS, ch)
	}
	fmt.Fprintf(w, "crit\t%s\n", crit)
	for _, laneRow := range r.Timeline {
		lane := blank()
		for _, iv := range laneRow.Intervals {
			ch := byte('m')
			switch {
			case iv.Outcome == "fault":
				ch = 'x'
			case iv.Outcome == "cancelled":
				ch = 'c'
			case iv.Phase == "reduce":
				ch = 'r'
			}
			fill(lane, iv.StartS, iv.EndS, ch)
		}
		fmt.Fprintf(w, "%s\t%s\n", laneRow.Worker, lane)
	}
}
