package obs

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicfile"
)

// traceKey carries a *Trace through a context.
type traceKey struct{}

// WithTrace returns a context carrying tr; obs.Start calls under it
// record into tr. A nil tr returns ctx unchanged.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceOf returns the trace carried by ctx, or nil.
func TraceOf(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// DefaultTraceLimit bounds a trace's event count so a long-running
// daemon or a large -bench run cannot grow one without bound; events
// past the limit are counted but dropped.
const DefaultTraceLimit = 1 << 20

// LocalPID is the process lane this trace's own events render under
// in the Chrome trace export. Events merged in via Merge carry the pid
// the caller assigned them.
const LocalPID = 1

// Trace collects completed spans from any number of goroutines, plus
// the spans and instant events of peer traces spliced in by Merge. It
// is safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	epoch   time.Time
	events  []event
	limit   int
	dropped int64
	procs   map[int]string // pid → process display name (Perfetto lane labels)
}

// event is one recorded trace entry (a completed span or an instant).
type event struct {
	name  string
	ph    byte // 'X' complete span, 'i' instant
	start time.Time
	dur   time.Duration
	pid   int // 0 means LocalPID
	tid   int64
	args  []Arg
}

// Arg is one key/value annotation on a span or instant event.
type Arg struct {
	Key   string
	Value any
}

// A builds an Arg; it reads well at call sites:
// obs.Start(ctx, "fuzz.round", obs.A("seeds", n)).
func A(key string, value any) Arg { return Arg{Key: key, Value: value} }

// NewTrace returns an empty trace whose timestamps are relative to
// now, capped at DefaultTraceLimit events.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now(), limit: DefaultTraceLimit}
}

// SetProcessName labels a process lane: the Chrome export carries one
// process_name metadata event per named pid, so Perfetto renders the
// lane as e.g. "kondo-load" or "kondo-serve" instead of a number.
func (t *Trace) SetProcessName(pid int, name string) {
	t.mu.Lock()
	if t.procs == nil {
		t.procs = make(map[int]string)
	}
	t.procs[pid] = name
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// PIDs returns the distinct process lanes of the retained events plus
// any named lanes, sorted — a stitched trace's lane count without a
// full export. Nil-safe (returns nil).
func (t *Trace) PIDs() []int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	set := make(map[int]bool, 2)
	for _, e := range t.events {
		pid := e.pid
		if pid == 0 {
			pid = LocalPID
		}
		set[pid] = true
	}
	for pid := range t.procs {
		set[pid] = true
	}
	t.mu.Unlock()
	out := make([]int, 0, len(set))
	for pid := range set {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// Dropped returns how many events were discarded over the limit.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func (t *Trace) add(e event) {
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Span is one in-flight timed operation. A nil Span (returned by
// Start when the context carries no trace) is valid: every method is
// a no-op, so call sites never branch on whether tracing is enabled.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	tid   int64
	args  []Arg
}

// Start begins a span named name if ctx carries a Trace, returning
// nil otherwise. The disabled path performs no allocations when
// called without args. By convention names are dot-separated with the
// subsystem first: "fuzz.round", "carve.merge", "serve.chunk".
func Start(ctx context.Context, name string, args ...Arg) *Span {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, name: name, start: time.Now(), args: args}
}

// Arg appends one annotation. Nil-safe; returns s for chaining.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Value: value})
	return s
}

// SetTID assigns the span to a display lane (Chrome renders one row
// per tid) — worker pools pass the worker index so their batches
// stack side by side. Nil-safe; returns s for chaining.
func (s *Span) SetTID(tid int) *Span {
	if s == nil {
		return nil
	}
	s.tid = int64(tid)
	return s
}

// End completes the span and records it. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.add(event{
		name:  s.name,
		ph:    'X',
		start: s.start,
		dur:   time.Since(s.start),
		tid:   s.tid,
		args:  s.args,
	})
}

// chromeEvent is the trace_event JSON shape understood by
// chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since trace start
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the exported top-level object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// WriteJSON exports the trace as Chrome trace_event JSON. Events are
// sorted by start time; timestamps are microseconds relative to the
// trace's creation.
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := append([]event(nil), t.events...)
	epoch := t.epoch
	dropped := t.dropped
	procs := make(map[int]string, len(t.procs))
	for pid, name := range t.procs {
		procs[pid] = name
	}
	t.mu.Unlock()

	sort.SliceStable(events, func(i, j int) bool { return events[i].start.Before(events[j].start) })
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(events)+len(procs)),
		DisplayTimeUnit: "ms",
	}
	if dropped > 0 {
		out.Metadata = map[string]any{"dropped_events": dropped}
	}
	// Process-name metadata first, sorted by pid, so viewers label the
	// lanes before any timed event references them.
	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			Args: map[string]any{"name": procs[pid]},
		})
	}
	for _, e := range events {
		pid := e.pid
		if pid == 0 {
			pid = LocalPID
		}
		ce := chromeEvent{
			Name: e.name,
			Cat:  category(e.name),
			Ph:   string(e.ph),
			TS:   float64(e.start.Sub(epoch)) / float64(time.Microsecond),
			PID:  pid,
			TID:  e.tid,
		}
		if e.ph == 'X' {
			dur := float64(e.dur) / float64(time.Microsecond)
			ce.Dur = &dur
		}
		if e.ph == 'i' {
			ce.S = "t" // thread-scoped instant
		}
		if len(e.args) > 0 {
			ce.Args = make(map[string]any, len(e.args))
			for _, a := range e.args {
				ce.Args[a.Key] = a.Value
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile exports the trace to a file (see WriteJSON), replacing any
// file at path all at once.
func (t *Trace) WriteFile(path string) error {
	return atomicfile.Write(path, 0o666, func(f *os.File) error { return t.WriteJSON(f) })
}

// category derives the Chrome "cat" field from a span name's leading
// dot-separated segment ("fuzz.round" → "fuzz").
func category(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
