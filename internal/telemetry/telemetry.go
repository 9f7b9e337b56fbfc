// Package telemetry is the engine-wide observability seam: structured trace
// spans and a lightweight metrics registry, threaded through the Pregel
// engine, the mini-MapReduce, the workflow layer and the CLIs the same way
// the simulated clock already flows.
//
// A Tracer receives Event records — paired Begin/End spans plus Instant
// markers — for every job, superstep sub-phase (compute/shuffle/barrier),
// MapReduce phase (map/shuffle/reduce), workflow op, checkpoint save/restore
// and fault-plan firing. Each event carries both the real wall-clock time
// and the simulated-cluster clock reading, so one trace shows where a run
// spends real CPU time and where the modeled cluster would spend its time.
//
// The zero value of every producer-side hook is "off": a nil Tracer or nil
// *Registry short-circuits before any event is built, so disabled telemetry
// adds zero allocations to the engine's shuffle hot path (locked by a
// benchmark fence in internal/pregel).
//
// Sinks: NewRecorder (in-memory, for tests and determinism checks),
// NewJSONLWriter (one JSON object per line), NewChromeWriter (Chrome
// trace_event JSON that loads directly in Perfetto / chrome://tracing).
package telemetry

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies an event: the start of a span, its end, or a point event.
type Kind uint8

const (
	// KindBegin opens a span; a matching KindEnd with the same Name closes it.
	KindBegin Kind = iota
	// KindEnd closes the most recent open span with the same Name.
	KindEnd
	// KindInstant is a point event (e.g. a fault-plan firing).
	KindInstant
)

// String returns the trace_event phase letter for the kind.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "B"
	case KindEnd:
		return "E"
	default:
		return "i"
	}
}

// Arg is one key/value annotation on an event. Exactly one of Str or Int is
// meaningful, selected by IsStr; the helpers S, I and M build them. Measured
// marks an integer read off the host (bytes allocated, GC time): sinks write
// it like any other arg, but Signature leaves it out, as it leaves out the
// timestamps.
type Arg struct {
	Key      string
	Str      string
	Int      int64
	IsStr    bool
	Measured bool
}

// I builds an integer arg.
func I(key string, v int64) Arg { return Arg{Key: key, Int: v} }

// M builds a measured integer arg.
func M(key string, v int64) Arg { return Arg{Key: key, Int: v, Measured: true} }

// S builds a string arg.
func S(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// Event is one structured trace record.
type Event struct {
	Kind Kind
	// Name labels the span or instant ("superstep", "compute", "op", ...).
	Name string
	// Cat groups related names ("pregel", "phase", "mr", "workflow",
	// "checkpoint", "fault").
	Cat string
	// WallNs is the real wall-clock time of the event in Unix nanoseconds.
	WallNs int64
	// SimNs is the simulated-cluster clock reading at the event, in
	// nanoseconds since pipeline start (see pregel.SimClock).
	SimNs float64
	// Args are optional annotations (step numbers, message counts, ...).
	Args []Arg
}

// Signature renders the event with timestamps and measured args stripped:
// kind, category, name and the other args only. Trace-determinism tests
// compare signature sequences across worker counts and partitioners.
func (e Event) Signature() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	b.WriteByte('|')
	b.WriteString(e.Cat)
	b.WriteByte('|')
	b.WriteString(e.Name)
	for _, a := range e.Args {
		if a.Measured {
			continue
		}
		b.WriteByte('|')
		b.WriteString(a.Key)
		b.WriteByte('=')
		if a.IsStr {
			b.WriteString(a.Str)
		} else {
			b.WriteString(strconv.FormatInt(a.Int, 10))
		}
	}
	return b.String()
}

// Tracer receives events. Implementations must be safe for concurrent use;
// the engine only emits from its coordinator (between-superstep) code, but
// several graphs may share one tracer.
type Tracer interface {
	Emit(Event)
}

// Recorder is an in-memory Tracer for tests.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Signatures returns the timestamp-stripped signature of every recorded
// event, in emission order.
func (r *Recorder) Signatures() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	sigs := make([]string, len(r.events))
	for i, e := range r.events {
		sigs[i] = e.Signature()
	}
	return sigs
}

// Reset discards everything recorded so far.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

// multiTracer fans events out to several sinks.
type multiTracer struct{ sinks []Tracer }

func (m multiTracer) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

// Multi returns a Tracer that forwards every event to each non-nil sink.
// With zero non-nil sinks it returns nil, which producers treat as "off".
func Multi(sinks ...Tracer) Tracer {
	var live []Tracer
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return multiTracer{sinks: live}
	}
}

// appendJSONString appends s as a JSON string literal (quoted, escaped).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendArgsJSON appends the args as a JSON object in arg order, with the
// simulated-clock reading first.
func appendArgsJSON(dst []byte, simNs float64, args []Arg) []byte {
	dst = append(dst, '{')
	dst = append(dst, `"sim_us":`...)
	dst = strconv.AppendFloat(dst, simNs/1e3, 'f', 3, 64)
	for _, a := range args {
		dst = append(dst, ',')
		dst = appendJSONString(dst, a.Key)
		dst = append(dst, ':')
		if a.IsStr {
			dst = appendJSONString(dst, a.Str)
		} else {
			dst = strconv.AppendInt(dst, a.Int, 10)
		}
	}
	return append(dst, '}')
}

// sortedKeys returns m's keys in sorted order (shared by the metrics dump).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
