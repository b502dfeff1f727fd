package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// jsonlLine is the wire form of one trace event: one JSON object per line,
// written by JSONLTracer and the flight recorder and read back by
// parseTrace. Identity fields repeat on end lines so a trace is greppable
// without reconstructing span state; zero-valued optionals are omitted to
// keep traces compact.
type jsonlLine struct {
	Ev      string          `json:"ev"` // "begin" | "end" | "point"
	TS      float64         `json:"ts"` // seconds since the tracer was created
	ID      int64           `json:"id,omitempty"`
	Parent  int64           `json:"parent,omitempty"`
	Span    int64           `json:"span,omitempty"` // point events: enclosing span
	Kind    string          `json:"kind,omitempty"`
	Name    string          `json:"name,omitempty"`
	Task    *int            `json:"task,omitempty"` // pointer: task 0 is valid, -1 = shuffle
	Attempt int             `json:"attempt,omitempty"`
	Phase   string          `json:"phase,omitempty"`
	Point   string          `json:"point,omitempty"`
	Outcome string          `json:"outcome,omitempty"`
	Err     string          `json:"err,omitempty"`
	RealS   float64         `json:"real_s,omitempty"`
	SimS    float64         `json:"sim_s,omitempty"`
	Seconds float64         `json:"seconds,omitempty"`
	Value   float64         `json:"value,omitempty"`
	Retries int64           `json:"retries,omitempty"`
	Worker  string          `json:"worker,omitempty"`
	Sample  *ResourceSample `json:"sample,omitempty"`
	Ctrs    *Counters       `json:"counters,omitempty"`
	Wasted  *Counters       `json:"wasted,omitempty"`

	// at, when non-zero, is the event's own capture time (Start/End/Point
	// At): the writer stamps TS from it instead of the write-time clock, so
	// clock-aligned worker events land at their true position on the
	// driver's timeline. Unexported — never marshaled.
	at time.Time
}

// JSONLTracer writes the event stream as JSON Lines to an io.Writer —
// the `-trace out.jsonl` format of cmd/p3crun. It buffers internally;
// call Close (or Flush) before reading the file. Safe for concurrent use.
//
// Write errors are sticky and reported by Close/Err — tracing must never
// fail the traced computation, so events after an error are dropped.
type JSONLTracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	start time.Time
	err   error
}

// NewJSONLTracer wraps w. The caller retains ownership of w (Close flushes
// the tracer but does not close w).
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: bufio.NewWriter(w), start: time.Now()}
}

func (t *JSONLTracer) write(line *jsonlLine) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if line.at.IsZero() {
		line.TS = time.Since(t.start).Seconds()
	} else {
		line.TS = line.at.Sub(t.start).Seconds()
	}
	b, err := json.Marshal(line)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.err = t.w.WriteByte('\n')
}

func taskPtr(kind SpanKind, task int) *int {
	if kind != KindTask && kind != KindStep {
		return nil
	}
	return &task
}

func ctrPtr(c Counters) *Counters {
	if c == (Counters{}) {
		return nil
	}
	return &c
}

// beginLine, endLine and pointLine build the wire form of one event. TS is
// left zero for the caller (JSONLTracer stamps write time; FlightRecorder
// replays the capture timestamp).
func beginLine(s Start) *jsonlLine {
	return &jsonlLine{
		Ev:      "begin",
		ID:      int64(s.ID),
		Parent:  int64(s.Parent),
		Kind:    s.Kind.String(),
		Name:    s.Name,
		Task:    taskPtr(s.Kind, s.Task),
		Attempt: s.Attempt,
		Phase:   s.Phase,
		at:      s.At,
	}
}

func endLine(e End) *jsonlLine {
	return &jsonlLine{
		Ev:      "end",
		ID:      int64(e.ID),
		Kind:    e.Kind.String(),
		Name:    e.Name,
		Task:    taskPtr(e.Kind, e.Task),
		Attempt: e.Attempt,
		Phase:   e.Phase,
		Outcome: e.Outcome.String(),
		Err:     e.Err,
		RealS:   e.RealSeconds,
		SimS:    e.SimulatedSeconds,
		Retries: e.Retries,
		Worker:  e.Worker,
		Ctrs:    ctrPtr(e.Counters),
		Wasted:  ctrPtr(e.Wasted),
		at:      e.At,
	}
}

func pointLine(p Point) *jsonlLine {
	return &jsonlLine{
		Ev:      "point",
		Span:    int64(p.Span),
		Point:   p.Kind.String(),
		Name:    p.Name,
		Task:    taskPtr(KindTask, p.Task),
		Attempt: p.Attempt,
		Phase:   p.Phase,
		Seconds: p.Seconds,
		Value:   p.Value,
		Worker:  p.Worker,
		Sample:  p.Sample,
		at:      p.At,
	}
}

// Begin implements Tracer.
func (t *JSONLTracer) Begin(s Start) { t.write(beginLine(s)) }

// End implements Tracer.
func (t *JSONLTracer) End(e End) { t.write(endLine(e)) }

// Point implements Tracer.
func (t *JSONLTracer) Point(p Point) { t.write(pointLine(p)) }

// Flush forces buffered lines out.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes and returns the first write error, if any.
func (t *JSONLTracer) Close() error {
	if err := t.Flush(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Err reports the sticky write error.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// parseTrace reads a JSONL trace back into its span forest. Lines may
// arrive out of causal order: a flight-recorder dump writes evicted
// critical events (often ends) before the ring window, and a merged
// multiprocess trace may place a point before its span's begin.
func parseTrace(r io.Reader) (spans map[int64]*span, roots []*span, events int, err error) {
	spans = make(map[int64]*span)
	var pending []*jsonlLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev := new(jsonlLine)
		if err := json.Unmarshal(line, ev); err != nil {
			return nil, nil, events, fmt.Errorf("line %d: %w", lineNo, err)
		}
		events++
		switch ev.Ev {
		case "begin":
			// Merge into an existing span rather than replace it: this begin
			// may follow its own end (see above), and replacing would drop
			// the end's outcome and detach the span.
			s := spans[ev.ID]
			if s == nil {
				s = &span{id: ev.ID}
				spans[ev.ID] = s
			}
			s.parent = ev.Parent
			s.kind = ev.Kind
			s.name = ev.Name
			s.attempt = ev.Attempt
			s.phase = ev.Phase
			s.beginTS = ev.TS
			if ev.Task != nil {
				s.task = *ev.Task
			}
		case "end":
			s := spans[ev.ID]
			if s == nil {
				// End without begin (the flight-recorder window may clip
				// begins): synthesize the span from the end's identity fields.
				s = &span{id: ev.ID, kind: ev.Kind, name: ev.Name,
					attempt: ev.Attempt, phase: ev.Phase, beginTS: ev.TS - ev.RealS}
				if ev.Task != nil {
					s.task = *ev.Task
				}
				spans[ev.ID] = s
			}
			s.closed = true
			s.endTS = ev.TS
			s.endSeq = events
			s.outcome = ev.Outcome
			s.errText = ev.Err
			s.realS = ev.RealS
			s.simS = ev.SimS
			s.retries = ev.Retries
			s.worker = ev.Worker
			if ev.Ctrs != nil {
				s.counters = *ev.Ctrs
			}
			if ev.Wasted != nil {
				s.wasted = *ev.Wasted
			}
		case "point":
			// Attached once the whole file is read: the point may precede
			// its span's begin.
			pending = append(pending, ev)
		default:
			return nil, nil, events, fmt.Errorf("line %d: unknown event %q", lineNo, ev.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, events, err
	}
	for _, p := range pending {
		if s := spans[p.Span]; s != nil {
			s.points = append(s.points, p)
		}
	}
	ids := make([]int64, 0, len(spans))
	for id := range spans {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s := spans[id]
		if parent := spans[s.parent]; s.parent != 0 && parent != nil {
			parent.children = append(parent.children, s)
		} else {
			roots = append(roots, s)
		}
	}
	// A span whose parent chain loops (a self-parented span, a two-span
	// cycle) hangs below no root; analyzing the roots alone would silently
	// drop it.
	reached := make(map[*span]bool, len(spans))
	var reach func(s *span)
	reach = func(s *span) {
		reached[s] = true
		for _, c := range s.children {
			reach(c)
		}
	}
	for _, root := range roots {
		reach(root)
	}
	for _, id := range ids {
		if !reached[spans[id]] {
			return nil, nil, events, fmt.Errorf("span %d: parent chain never reaches a root (parent cycle)", id)
		}
	}
	return spans, roots, events, nil
}
