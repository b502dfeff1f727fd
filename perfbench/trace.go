package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"p3cmr/internal/obs"
)

// stampTracer is an obs.MemTracer that also records when each span opened
// and closed, so that the benchmark can take unions of span intervals. It
// adds no span of its own.
type stampTracer struct {
	*obs.MemTracer
	mu    sync.Mutex
	begin map[obs.SpanID]time.Time
	end   map[obs.SpanID]time.Time
}

func newStampTracer() *stampTracer {
	return &stampTracer{
		MemTracer: obs.NewMemTracer(),
		begin:     map[obs.SpanID]time.Time{},
		end:       map[obs.SpanID]time.Time{},
	}
}

func (t *stampTracer) Begin(s obs.Start) {
	now := obs.Now()
	t.mu.Lock()
	t.begin[s.ID] = now
	t.mu.Unlock()
	t.MemTracer.Begin(s)
}

func (t *stampTracer) End(e obs.End) {
	now := obs.Now()
	t.mu.Lock()
	t.end[e.ID] = now
	t.mu.Unlock()
	t.MemTracer.End(e)
}

type interval struct{ lo, hi time.Time }

func (t *stampTracer) interval(id obs.SpanID) interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	return interval{t.begin[id], t.end[id]}
}

// unionSeconds is the length of the union of the intervals.
func unionSeconds(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case !iv.lo.After(cur.hi):
			if iv.hi.After(cur.hi) {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = iv
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total.Seconds()
}

// accountingTolerance is how far the phase seconds plus the time outside
// any phase may differ from the run span before the trace counts as
// inconsistent: 1% of the run plus 5 ms of clock-read slack.
func accountingTolerance(runS float64) float64 { return 0.01*runS + 0.005 }

// traceLayers derives the per-layer values of one traced clustering from its
// run → phase → job → task spans.
func traceLayers(t *stampTracer, parallelism int) (map[string]float64, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	layer := map[string]float64{}
	for _, name := range phaseMetric {
		layer[name] = 0
	}
	starts := t.Starts()
	parent := make(map[obs.SpanID]obs.SpanID, len(starts))
	for _, s := range starts {
		parent[s.ID] = s.Parent
	}
	var (
		runs         []obs.End
		phases, jobs []interval
		phaseSum     float64
		slowestJob   obs.End
		taskS        = map[obs.SpanID][]float64{}
		attempts     int
		busy         float64
	)
	for _, e := range t.Ends() {
		switch e.Kind {
		case obs.KindRun:
			runs = append(runs, e)
		case obs.KindPhase:
			name, ok := phaseMetric[e.Name]
			if !ok {
				return nil, fmt.Errorf("trace: unknown phase %q", e.Name)
			}
			layer[name] += e.RealSeconds
			phaseSum += e.RealSeconds
			phases = append(phases, t.interval(e.ID))
		case obs.KindJob:
			jobs = append(jobs, t.interval(e.ID))
			if e.RealSeconds > slowestJob.RealSeconds {
				slowestJob = e
			}
		case obs.KindTask:
			if e.Task < 0 {
				continue // the job-level shuffle step, not a task attempt
			}
			attempts++
			busy += e.RealSeconds
			taskS[parent[e.ID]] = append(taskS[parent[e.ID]], e.RealSeconds)
		}
	}
	if len(runs) != 1 {
		return nil, fmt.Errorf("trace: %d run spans, want 1", len(runs))
	}
	run := runs[0]
	runIv := t.interval(run.ID)
	runStamped := runIv.hi.Sub(runIv.lo).Seconds()
	outside := runStamped - unionSeconds(phases)
	if d := math.Abs(phaseSum + outside - run.RealSeconds); d > accountingTolerance(run.RealSeconds) {
		return nil, fmt.Errorf("trace: phases (%.4fs) plus time outside phases (%.4fs) miss the run span (%.4fs) by %.4fs",
			phaseSum, outside, run.RealSeconds, d)
	}
	jobWall := unionSeconds(jobs)
	layer["core.outside_phase_s"] = outside
	layer["core.driver_self_s"] = runStamped - jobWall
	layer["mr.task_attempts"] = float64(attempts)
	layer["mr.task_busy_s"] = busy
	layer["mr.slot_utilization"] = busy / (jobWall * float64(parallelism))
	layer["mr.task_skew_max"] = maxOverMedian(taskS[slowestJob.ID])
	layer["mr.map_in_records"] = float64(run.Counters.MapInputRecords)
	layer["mr.shuffled_bytes"] = float64(run.Counters.ShuffledBytes)
	layer["mr.retries"] = float64(run.Retries)
	layer["mr.wasted_records"] = float64(run.Wasted.MapInputRecords + run.Wasted.ReduceInputVals)
	layer["obs.spans"] = float64(len(starts))
	return layer, nil
}

func maxOverMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := median(xs)
	if m <= 0 {
		return 0
	}
	return maxOf(xs) / m
}
