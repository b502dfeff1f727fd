package mr

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"p3cmr/internal/obs"
)

// multiprocBackend executes tasks on worker OS processes: re-exec'd copies
// of the current binary (see worker.go) fed framed task descriptions over
// pipes. Map output spills to disk as sorted runs and reduce tasks k-way
// merge them back (spill.go) — the shuffle is out-of-core, bounded by
// Config.SpillThresholdBytes of map-side RAM per worker.
//
// Scheduling stays in the driver and deliberately reuses the in-process
// machinery: the same semaphore-gated launch loops, the same
// runTaskAttempts retry loop, the same FaultPlan decision points decided
// driver-side and shipped to the worker as exact kill indices. An injected
// failure therefore kills a *real* process (the worker SIGKILLs itself
// after flushing its partial counters), yet retries, Wasted accounting,
// counters and output remain bit-identical to the in-process backend —
// which is what the cross-backend conformance suite pins.
type multiprocBackend struct{}

func (multiprocBackend) Name() string { return "multiprocess" }

// ProcStats summarizes the worker-process side of the engine's most recent
// multiprocess run: fleet size and deaths, plus out-of-core shuffle volume.
type ProcStats struct {
	// WorkersSpawned / WorkersKilled count worker processes started and
	// reaped dead mid-run (injected or real crashes). WorkerPIDs lists
	// every spawned worker's OS pid in spawn order.
	WorkersSpawned int
	WorkersKilled  int
	WorkerPIDs     []int
	// SpillFiles counts spill files of committed map attempts (files of
	// killed attempts are swept with the run directory); Segments the
	// sorted runs inside them; MidTaskSpills the threshold-triggered
	// (out-of-core) spill passes; SpilledBytes the total committed
	// segment bytes; MergedSegments the segments handed to reduce tasks.
	SpillFiles     int
	Segments       int
	MidTaskSpills  int
	SpilledBytes   int64
	MergedSegments int
	// TelemetryEvents counts worker-trace events folded into the driver's
	// span stream (0 on telemetry-off runs).
	TelemetryEvents int
}

// LastProcStats returns the ProcStats of the engine's most recent
// multiprocess Run, and whether one has completed.
func (e *Engine) LastProcStats() (ProcStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastProc == nil {
		return ProcStats{}, false
	}
	return *e.lastProc, true
}

// workerProc is one live worker process and its two protocol pipes. A
// worker is owned by at most one task goroutine at a time (acquire /
// release), so its streams need no locking.
type workerProc struct {
	cmd  *exec.Cmd
	pid  int
	name string
	in   *os.File // control pipe, driver write end
	res  *os.File // result pipe, driver read end
	bw   *bufio.Writer
	br   *bufio.Reader
	// jobSent: this worker has received the run's job frame.
	jobSent bool
	// dead: reaped after a mid-task death; excluded from teardown shutdown.
	dead     bool
	waitOnce sync.Once
	waitErr  error
	// Clock alignment (telemetry runs only): helloAt is the driver time at
	// which the worker's post-hello TelClock frame arrived; helloMono the
	// worker-epoch seconds it carried. alignTime maps any worker timestamp
	// onto the driver clock; the residual error is the one-way pipe latency.
	helloAt   time.Time
	helloMono float64
}

// alignTime maps a worker-epoch timestamp (seconds) onto driver time.
func (w *workerProc) alignTime(s float64) time.Time {
	return w.helloAt.Add(time.Duration((s - w.helloMono) * float64(time.Second)))
}

// readClock consumes the worker's post-hello telemetry frame and records
// the clock-alignment pair. Only called on telemetry-enabled runs.
func (w *workerProc) readClock() error {
	typ, data, err := readFrame(w.br)
	at := obs.Now()
	if err != nil {
		return err
	}
	if typ != fTelemetry {
		return fmt.Errorf("frame 0x%02x after hello, want telemetry clock", typ)
	}
	var tf telemetryFrame
	if err := decodeFrame(data, &tf); err != nil {
		return err
	}
	for _, ev := range tf.Events {
		if ev.Ev == obs.TelClock {
			w.helloAt, w.helloMono = at, ev.S
			return nil
		}
	}
	return errors.New("telemetry clock frame carries no TelClock event")
}

// emitTelemetry folds one worker telemetry frame into the driver's span
// stream: begins open KindStep spans under the live attempt span (worker-
// local IDs remapped to process-unique SpanIDs — the worker's flush
// discipline guarantees a frame carries complete begin/end sets, so the
// remap table is per-frame), ends stamp Worker and outcome, points attach
// to the attempt span. Every timestamp is aligned onto the driver clock, so
// the sinks see one coherent forest.
func (p *procRun) emitTelemetry(w *workerProc, span obs.SpanID, task, attempt int, data []byte) error {
	var tf telemetryFrame
	if err := decodeFrame(data, &tf); err != nil {
		return err
	}
	tr := p.e.cfg.Tracer
	if tr == nil {
		return nil
	}
	ids := make(map[int64]obs.SpanID, 4)
	for i := range tf.Events {
		ev := &tf.Events[i]
		switch ev.Ev {
		case obs.TelBegin:
			id := obs.NewSpanID()
			ids[ev.ID] = id
			//lint:allow spanbalance replay fold: the End arrives as a later TelEnd event in the same or a later frame, and the worker's AbortOpen-before-drain discipline guarantees no begin is left dangling
			tr.Begin(obs.Start{ID: id, Parent: span, Kind: obs.KindStep,
				Name: ev.Name, Task: task, Attempt: attempt, Phase: ev.Phase,
				At: w.alignTime(ev.S)})
		case obs.TelEnd:
			id, ok := ids[ev.ID]
			if !ok {
				continue
			}
			tr.End(obs.End{ID: id, Kind: obs.KindStep, Name: ev.Name,
				Task: task, Attempt: attempt, Phase: ev.Phase,
				Outcome: obs.Outcome(ev.Outcome), Err: ev.Err,
				RealSeconds: ev.RealS, Worker: w.name, At: w.alignTime(ev.S)})
		case obs.TelPoint:
			tr.Point(obs.Point{Span: span, Kind: obs.PointKind(ev.PKind),
				Name: p.job.Name, Task: task, Attempt: attempt, Phase: ev.Phase,
				Seconds: ev.Seconds, Worker: w.name, Sample: ev.Sample,
				At: w.alignTime(ev.S)})
		}
	}
	p.mu.Lock()
	p.stats.TelemetryEvents += len(tf.Events)
	p.mu.Unlock()
	return nil
}

// wait reaps the child exactly once.
func (w *workerProc) wait() error {
	w.waitOnce.Do(func() { w.waitErr = w.cmd.Wait() })
	return w.waitErr
}

// attemptReply is a worker's reply to one committed attempt: streamed
// output pairs (map-only and reduce attempts) and the done frame. A reduce
// attempt's doneFrame decodes into the same struct — gob matches fields by
// name — leaving the segment fields empty.
type attemptReply struct {
	pairs []Pair
	done  mapDoneFrame
}

// procRun is the per-Run state of the multiprocess backend: the worker
// fleet, the spill directory, and the pre-encoded job frame.
type procRun struct {
	e           *Engine
	job         *Job
	dir         string
	exe         string
	jf          jobFrame
	hasCombiner bool
	// tel enables worker telemetry (driver has a Tracer); telSample is the
	// sampler cadence shipped to workers via telemetryEnv.
	tel       bool
	telSample time.Duration

	mu    sync.Mutex
	idle  []*workerProc
	all   []*workerProc
	stats ProcStats
}

// newProcRun creates the run's spill directory and pre-encodes the job
// frame (including the wire-encoded cache, in sorted key order).
func newProcRun(rc *runContext) (*procRun, error) {
	e, job := rc.e, rc.job
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mr: multiprocess backend: resolve executable: %w", err)
	}
	dir, err := os.MkdirTemp(e.cfg.SpillDir, "p3cmr-spill-*")
	if err != nil {
		return nil, fmt.Errorf("mr: multiprocess backend: spill dir: %w", err)
	}
	hasCombiner := job.TypedCombiner != nil
	telSample := e.cfg.TelemetrySample
	if telSample <= 0 {
		telSample = 250 * time.Millisecond
	}
	p := &procRun{
		e: e, job: job, dir: dir, exe: exe, hasCombiner: hasCombiner,
		tel: e.cfg.Tracer != nil, telSample: telSample,
		jf: jobFrame{
			Name:        job.Name,
			Impl:        job.Impl,
			Spec:        job.Spec,
			NumReducers: job.NumReducers,
			NB:          rc.nb,
			MapOnly:     rc.mapOnly,
			HasCombiner: hasCombiner,
			Poison:      e.cfg.DebugPoisonPools,
			SpillDir:    dir,
			SpillLimit:  resolveSpillThreshold(e.cfg.SpillThresholdBytes),
		},
	}
	if len(job.Cache) > 0 {
		keys := make([]string, 0, len(job.Cache))
		for k := range job.Cache {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		for _, k := range keys {
			buf.Reset()
			if err := appendValue(&buf, job.Cache[k]); err != nil {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("mr: job %q: cache entry %q is not wire-encodable: %w", job.Name, k, err)
			}
			p.jf.CacheKeys = append(p.jf.CacheKeys, k)
			p.jf.CacheVals = append(p.jf.CacheVals, append([]byte(nil), buf.Bytes()...))
		}
	}
	return p, nil
}

// spawn starts one worker process, wiring the control pipe to its fd 3 and
// the result pipe to its fd 4, and waits for its hello frame.
func (p *procRun) spawn() (*workerProc, error) {
	ctlR, ctlW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	resR, resW, err := os.Pipe()
	if err != nil {
		ctlR.Close()
		ctlW.Close()
		return nil, err
	}
	cmd := exec.Command(p.exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	if p.tel {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", telemetryEnv, p.telSample.Milliseconds()))
	}
	cmd.ExtraFiles = []*os.File{ctlR, resW} // child fds 3, 4
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		ctlR.Close()
		ctlW.Close()
		resR.Close()
		resW.Close()
		return nil, fmt.Errorf("mr: spawn worker: %w", err)
	}
	// The child holds its own copies of the pipe ends now.
	ctlR.Close()
	resW.Close()
	w := &workerProc{
		cmd: cmd, in: ctlW, res: resR,
		bw: bufio.NewWriterSize(ctlW, 256<<10),
		br: bufio.NewReaderSize(resR, 256<<10),
	}
	typ, data, err := readFrame(w.br)
	if err == nil && typ != fHello {
		err = fmt.Errorf("first frame 0x%02x, want hello", typ)
	}
	var hello helloFrame
	if err == nil {
		err = decodeFrame(data, &hello)
	}
	if err == nil && p.tel {
		// Telemetry handshake: the worker follows hello with a TelClock
		// frame; pairing its worker-epoch reading with the driver receive
		// time calibrates alignTime for every later event.
		err = w.readClock()
	}
	if err != nil {
		ctlW.Close()
		resR.Close()
		cmd.Process.Kill()
		w.wait()
		return nil, fmt.Errorf("mr: worker handshake: %w (is MaybeWorkerProcess called first thing in main?)", err)
	}
	w.pid = hello.PID
	w.name = fmt.Sprintf("w%d", hello.PID)
	p.mu.Lock()
	p.all = append(p.all, w)
	p.stats.WorkersSpawned++
	p.stats.WorkerPIDs = append(p.stats.WorkerPIDs, w.pid)
	p.mu.Unlock()
	return w, nil
}

// acquire hands out an idle worker, spawning one when none is free. The
// fleet therefore sizes itself to the engine semaphore's concurrency.
func (p *procRun) acquire() (*workerProc, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return w, nil
	}
	p.mu.Unlock()
	return p.spawn()
}

func (p *procRun) release(w *workerProc) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// reap collects a worker that died mid-task (injected self-kill or a real
// crash): closes its pipes and waits on the corpse so nothing is orphaned.
func (p *procRun) reap(w *workerProc) {
	w.dead = true
	w.in.Close()
	w.res.Close()
	w.wait()
	p.mu.Lock()
	p.stats.WorkersKilled++
	p.mu.Unlock()
}

// teardown shuts the fleet down — closing each live worker's control pipe
// (the worker's clean-exit signal) with a bounded grace before a hard kill
// — then sweeps the spill directory and publishes ProcStats.
func (p *procRun) teardown() {
	p.mu.Lock()
	workers := p.all
	p.all, p.idle = nil, nil
	stats := p.stats
	p.mu.Unlock()
	for _, w := range workers {
		if w.dead {
			continue
		}
		w.bw.Flush()
		w.in.Close()
		done := make(chan struct{})
		go func(w *workerProc) {
			w.wait()
			close(done)
		}(w)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			w.cmd.Process.Kill()
			<-done
		}
		w.res.Close()
	}
	os.RemoveAll(p.dir)
	e := p.e
	e.mu.Lock()
	e.lastProc = &stats
	e.mu.Unlock()
}

// sendTask ships the job frame (once per worker) and one task frame.
func (p *procRun) sendTask(w *workerProc, typ byte, frame any) error {
	if !w.jobSent {
		if err := writeFrame(w.bw, fJob, p.jf); err != nil {
			return err
		}
		w.jobSent = true
	}
	if err := writeFrame(w.bw, typ, frame); err != nil {
		return err
	}
	return w.bw.Flush()
}

// runTask is the multiprocess mirror of Engine.runMapTask and
// runReduceTask: the same retry loop, with each attempt bound to a worker
// process.
func (p *procRun) runTask(phase TaskPhase, taskID int, jobSpan obs.SpanID, cancel <-chan struct{},
	attempt func(w *workerProc, attempt int, span obs.SpanID) (attemptReply, Counters, float64, error)) (attemptReply, Counters, faultCharge, error) {
	var cur string
	return runTaskAttempts(p.e, p.job, phase, taskID, jobSpan, cancel,
		func() string { return cur },
		func(n int, span obs.SpanID) (attemptReply, Counters, float64, error) {
			w, err := p.acquire()
			if err != nil {
				return attemptReply{}, Counters{}, 0, err
			}
			cur = w.name
			return attempt(w, n, span)
		})
}

// mapAttempt runs one map attempt on w. Fault decisions happen here, in
// the driver, at the same plan decision points as tryMapTask — the map
// decision first, the combine decision only if the map loop would survive
// — and ship to the worker as exact kill indices, so a multiprocess run
// consumes the FaultPlan identically to an in-process one.
func (p *procRun) mapAttempt(w *workerProc, split *Split, attempt int, span obs.SpanID, mapOnly bool) (attemptReply, Counters, float64, error) {
	e, job := p.e, p.job
	straggler, killAt := e.decideMap(job.Name, split.ID, attempt, split.NumRows(), span, w.name)
	combineKill := false
	if killAt == -1 && p.hasCombiner && !mapOnly {
		var s float64
		s, combineKill = e.decideCombine(job.Name, split.ID, attempt, span, w.name)
		straggler += s
	}
	killPhase := PhaseMap
	if combineKill {
		killPhase = PhaseCombine
	}
	rep, c, err := p.runOnWorker(w, fMapTask, mapTaskFrame{
		Task: split.ID, Attempt: attempt,
		Offset: split.Offset, Dim: split.Dim, Rows: split.Rows,
		KillAt: killAt, CombineKill: combineKill,
	}, fMapDone, split.ID, attempt, span, killPhase)
	return rep, c, straggler, err
}

// reduceAttempt runs one reduce attempt on w. The kill threshold is the
// same consumed-records index tryReduceTask derives from the plan.
func (p *procRun) reduceAttempt(w *workerProc, taskID int, segs []segmentRef, records int64, attempt int, span obs.SpanID) (attemptReply, Counters, float64, error) {
	straggler, killAt := p.e.decideReduce(p.job.Name, taskID, attempt, int(records), span, w.name)
	rep, c, err := p.runOnWorker(w, fReduceTask, reduceTaskFrame{
		Task: taskID, Attempt: attempt, KillAt: killAt,
		Segments: segs, TotalRecords: records,
	}, fReduceDone, taskID, attempt, span, PhaseReduce)
	return rep, c, straggler, err
}

// runOnWorker is the driver side of one attempt on w, shared by map and
// reduce tasks: it ships the task frame, then folds the worker's result
// stream — pairs, telemetry — until the attempt commits with a doneTyp
// frame, dies at an injected kill point (a dying frame whose partial
// counters become wasted work, traced as a killPhase fault), or reports a
// real error. A worker that vanishes without a dying frame is a real
// crash: it is reaped and the attempt retried; its counters are unknown, so
// the charge is the retry itself, not wasted counters.
func (p *procRun) runOnWorker(w *workerProc, typ byte, frame any, doneTyp byte, task, attempt int, span obs.SpanID, killPhase TaskPhase) (attemptReply, Counters, error) {
	if err := p.sendTask(w, typ, frame); err != nil {
		p.reap(w)
		return attemptReply{}, Counters{}, errInjectedFailure
	}
	var rep attemptReply
	for {
		ft, data, err := readFrame(w.br)
		if err != nil {
			p.reap(w)
			return attemptReply{}, Counters{}, errInjectedFailure
		}
		switch ft {
		case fPairs:
			var pf pairsFrame
			if err = decodeFrame(data, &pf); err == nil {
				rep.pairs, err = decodePairs(rep.pairs, pf.Data)
			}
		case fTelemetry:
			err = p.emitTelemetry(w, span, task, attempt, data)
		case doneTyp:
			if err = decodeFrame(data, &rep.done); err == nil {
				p.release(w)
				return rep, rep.done.Counters, nil
			}
		case fDying:
			var df dyingFrame
			if decodeFrame(data, &df) != nil {
				p.reap(w)
				return attemptReply{}, Counters{}, errInjectedFailure
			}
			if p.e.cfg.Tracer != nil {
				p.e.pointW(span, obs.PointFault, p.job.Name, task, attempt, killPhase, 0, w.name)
			}
			p.reap(w)
			return attemptReply{}, df.Counters, errInjectedFailure
		case fTaskErr:
			var ef errFrame
			if err = decodeFrame(data, &ef); err == nil {
				p.release(w)
				return attemptReply{}, Counters{}, errors.New(ef.Msg)
			}
		default:
			err = fmt.Errorf("unexpected frame 0x%02x", ft)
		}
		if err != nil {
			p.reap(w)
			return attemptReply{}, Counters{}, fmt.Errorf("mr: worker %s: %w", w.name, err)
		}
	}
}

func (multiprocBackend) execute(rc *runContext) ([]Pair, Counters, faultCharge, error) {
	e, job := rc.e, rc.job
	tr := e.cfg.Tracer
	if job.Impl == "" {
		return nil, Counters{}, faultCharge{}, fmt.Errorf(
			"mr: job %q: the multiprocess backend requires Job.Impl (a RegisterJobImpl name): function values cannot cross the process boundary", job.Name)
	}
	p, err := newProcRun(rc)
	if err != nil {
		return nil, Counters{}, faultCharge{}, err
	}
	defer p.teardown()

	// --- Map phase: same launch loop and slot scheme as in-process -------
	mapRes := make([]attemptReply, len(job.Splits))
	mapCounters := make([]Counters, len(job.Splits))
	mapFaults := make([]faultCharge, len(job.Splits))
	var wg sync.WaitGroup
mapLaunch:
	for i, split := range job.Splits {
		select {
		case <-rc.cancelCh:
			break mapLaunch
		case e.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int, split *Split) {
			defer wg.Done()
			defer func() { <-e.sem }()
			res, c, fc, err := p.runTask(PhaseMap, split.ID, rc.jobSpan, rc.cancelCh,
				func(w *workerProc, attempt int, span obs.SpanID) (attemptReply, Counters, float64, error) {
					return p.mapAttempt(w, split, attempt, span, rc.mapOnly)
				})
			mapFaults[i] = fc
			if err != nil {
				if !errors.Is(err, errTaskCancelled) {
					rc.setErr(fmt.Errorf("mr: job %q map task %d: %w", job.Name, split.ID, err))
				}
				return
			}
			mapRes[i] = res
			mapCounters[i] = c
		}(i, split)
	}
	wg.Wait()
	if err := rc.firstErr(); err != nil {
		return nil, Counters{}, faultCharge{}, err
	}

	var counters Counters
	var fault faultCharge
	for i := range mapCounters {
		counters.Add(mapCounters[i])
		fault.add(mapFaults[i])
	}

	if rc.mapOnly {
		total := 0
		for i := range mapRes {
			total += len(mapRes[i].pairs)
		}
		outPairs := make([]Pair, 0, total)
		for i := range mapRes {
			outPairs = append(outPairs, mapRes[i].pairs...)
		}
		counters.OutputRecords = int64(len(outPairs))
		return outPairs, counters, fault, nil
	}

	// --- Shuffle: assemble each partition's segment list -----------------
	// Committed map attempts left sorted runs on disk; the "shuffle" here
	// is pure bookkeeping — ordering each partition's segments by (map
	// task, spill pass), which is the order that makes the reduce-side
	// merge reproduce the in-process value order.
	var shufSpan obs.SpanID
	var shufStart time.Time
	if tr != nil {
		shufSpan = obs.NewSpanID()
		tr.Begin(obs.Start{ID: shufSpan, Parent: rc.jobSpan, Kind: obs.KindTask,
			Name: job.Name, Task: -1, Phase: "shuffle"})
		shufStart = obs.Now()
	}
	partSegs := make([][]segmentRef, rc.numReducers)
	partRecs := make([]int64, rc.numReducers)
	for i := range mapRes {
		if len(mapRes[i].done.Segments) > 0 {
			p.stats.SpillFiles++
		}
		p.stats.MidTaskSpills += mapRes[i].done.MidSpills
		for _, s := range mapRes[i].done.Segments {
			p.stats.Segments++
			p.stats.SpilledBytes += s.Length
			partSegs[s.Part] = append(partSegs[s.Part], s)
			partRecs[s.Part] += s.Records
		}
	}
	if tr != nil {
		tr.End(obs.End{ID: shufSpan, Kind: obs.KindTask, Name: job.Name,
			Task: -1, Phase: "shuffle", Outcome: obs.OutcomeOK,
			RealSeconds: obs.Since(shufStart).Seconds(),
			Counters:    Counters{ShuffledBytes: counters.ShuffledBytes}})
	}

	// --- Reduce phase ----------------------------------------------------
	redOuts := make([][]Pair, rc.numReducers)
	redCounters := make([]Counters, rc.numReducers)
	redFaults := make([]faultCharge, rc.numReducers)
	var rwg sync.WaitGroup
redLaunch:
	for r := 0; r < rc.numReducers; r++ {
		if partRecs[r] == 0 {
			continue
		}
		p.stats.MergedSegments += len(partSegs[r])
		select {
		case <-rc.cancelCh:
			break redLaunch
		case e.sem <- struct{}{}:
		}
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			defer func() { <-e.sem }()
			rep, c, fc, err := p.runTask(PhaseReduce, r, rc.jobSpan, rc.cancelCh,
				func(w *workerProc, attempt int, span obs.SpanID) (attemptReply, Counters, float64, error) {
					return p.reduceAttempt(w, r, partSegs[r], partRecs[r], attempt, span)
				})
			redFaults[r] = fc
			if err != nil {
				if !errors.Is(err, errTaskCancelled) {
					rc.setErr(fmt.Errorf("mr: job %q reduce task %d: %w", job.Name, r, err))
				}
				return
			}
			redOuts[r] = rep.pairs
			redCounters[r] = c
		}(r)
	}
	rwg.Wait()
	if err := rc.firstErr(); err != nil {
		return nil, Counters{}, faultCharge{}, err
	}
	total := 0
	for r := range redOuts {
		counters.Add(redCounters[r])
		fault.add(redFaults[r])
		total += len(redOuts[r])
	}
	outPairs := make([]Pair, 0, total)
	for r := range redOuts {
		outPairs = append(outPairs, redOuts[r]...)
	}
	counters.OutputRecords = int64(len(outPairs))
	return outPairs, counters, fault, nil
}
