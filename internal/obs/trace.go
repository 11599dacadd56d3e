package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Tracer emits structured search events as JSON Lines: one object per
// line with a monotone sequence number, an event name and a flat field
// object. Field maps are marshaled by encoding/json, which sorts keys,
// so a trace of a deterministic (Workers=1, Timings off) run is
// byte-reproducible — the tracer golden test relies on this.
//
// The event vocabulary emitted by the engines:
//
//	check_start    check (rcdp|rcqp|bounded-rcdp|bounded-rcqp), workers
//	disjunct_done  check=rcdp: disjunct index, valuations tried,
//	               answered-head cuts (head_cuts), nogood jumps
//	               (nogood_jumps), witness?
//	tableau_build  a compiled-query cache miss (query name)
//	pdm_build      a master-side projection p(Dm) cache miss (rel, cols)
//	gate_trip      a governance gate tripped (reason)
//	pool_run       a parallel fan-out (tasks, workers)
//	check_done     verdict, reason, valuations, join_rows, tuples
//	               (+ elapsed_ns when Timings is on)
//
// All methods are safe for concurrent use; events from concurrent
// workers interleave at line granularity.
type Tracer struct {
	// Timings includes wall-clock fields (elapsed_ns) in events. Off,
	// the stream is deterministic for sequential runs; the CLIs turn it
	// on.
	Timings bool

	mu  sync.Mutex
	w   io.Writer
	seq int64
	err error
}

// NewTracer returns a tracer writing JSONL events to w.
func NewTracer(w io.Writer) *Tracer { return &Tracer{w: w} }

// Emit writes one event. Nil-safe: a nil tracer drops the event. The
// fields map must not contain "seq" or "ev" (they are reserved and
// would be overwritten).
func (t *Tracer) Emit(ev string, fields map[string]any) {
	if t == nil {
		return
	}
	if fields == nil {
		fields = map[string]any{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	fields["seq"] = t.seq
	fields["ev"] = ev
	line, err := json.Marshal(fields)
	if err != nil {
		t.err = err
		return
	}
	line = append(line, '\n')
	if _, err := t.w.Write(line); err != nil {
		t.err = err
	}
}

// Err returns the first write or marshal error, after which the tracer
// drops all events.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// current is the process-global tracer; nil when tracing is off.
var current atomic.Pointer[Tracer]

// SetTracer installs t as the process-global tracer (nil turns tracing
// off) and returns the previous one.
func SetTracer(t *Tracer) *Tracer {
	prev := current.Load()
	current.Store(t)
	return prev
}

// CurrentTracer returns the installed tracer, or nil.
func CurrentTracer() *Tracer { return current.Load() }

// Tracing reports whether a tracer is installed. Call sites guard
// event-field construction with it so the disabled path allocates
// nothing.
func Tracing() bool { return current.Load() != nil }

// Emit forwards one event to the installed tracer, if any. Callers on
// warm paths should guard with Tracing() before building the fields
// map.
func Emit(ev string, fields map[string]any) { current.Load().Emit(ev, fields) }
