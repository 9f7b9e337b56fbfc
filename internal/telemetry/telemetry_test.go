package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSignature(t *testing.T) {
	e := Event{Kind: KindBegin, Name: "superstep", Cat: "pregel",
		WallNs: 123456789, SimNs: 42e3,
		Args: []Arg{I("step", 3), S("job", "label")}}
	got := e.Signature()
	want := "B|pregel|superstep|step=3|job=label"
	if got != want {
		t.Fatalf("Signature() = %q, want %q", got, want)
	}
	// Timestamps must not leak into the signature.
	e2 := e
	e2.WallNs, e2.SimNs = 999, 1
	if e2.Signature() != want {
		t.Fatalf("signature depends on timestamps")
	}
	// Nor do measured args, which sinks still write.
	e2.Args = []Arg{I("step", 3), M("alloc_bytes", 4096), S("job", "label")}
	if e2.Signature() != want {
		t.Fatalf("signature depends on measured args: %q", e2.Signature())
	}
	if line := string(appendArgsJSON(nil, 0, e2.Args)); !strings.Contains(line, `"alloc_bytes":4096`) {
		t.Fatalf("measured arg missing from the written args: %s", line)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{Kind: KindBegin, Name: "a", Cat: "c"})
	r.Emit(Event{Kind: KindEnd, Name: "a", Cat: "c", Args: []Arg{I("n", 7)}})
	sigs := r.Signatures()
	if len(sigs) != 2 || sigs[0] != "B|c|a" || sigs[1] != "E|c|a|n=7" {
		t.Fatalf("Signatures() = %v", sigs)
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatalf("Reset did not clear events")
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatalf("Multi with no live sinks must be nil")
	}
	a, b := NewRecorder(), NewRecorder()
	if got := Multi(nil, a); got != Tracer(a) {
		t.Fatalf("Multi with one live sink must return it directly")
	}
	m := Multi(a, nil, b)
	m.Emit(Event{Kind: KindInstant, Name: "x", Cat: "c"})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("Multi did not fan out: %d/%d", len(a.Events()), len(b.Events()))
	}
}

func TestJSONLWriterGolden(t *testing.T) {
	var sb strings.Builder
	w := NewJSONLWriter(&sb)
	w.Emit(Event{Kind: KindBegin, Name: "op", Cat: "workflow",
		WallNs: 1000, SimNs: 2500, Args: []Arg{S("op", "build"), I("index", 0)}})
	w.Emit(Event{Kind: KindInstant, Name: "fault", Cat: "fault",
		WallNs: 2000, SimNs: 3000, Args: []Arg{I("worker", 2)}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"ph":"B","name":"op","cat":"workflow","wall_ns":1000,"args":{"sim_us":2.500,"op":"build","index":0}}
{"ph":"i","name":"fault","cat":"fault","wall_ns":2000,"args":{"sim_us":3.000,"worker":2}}
`
	if sb.String() != want {
		t.Fatalf("jsonl output:\n%s\nwant:\n%s", sb.String(), want)
	}
	// Every line must round-trip as standalone JSON.
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
}

func TestChromeWriterGolden(t *testing.T) {
	var sb strings.Builder
	w := NewChromeWriter(&sb)
	w.Emit(Event{Kind: KindBegin, Name: "superstep", Cat: "pregel",
		WallNs: 5_000_000, SimNs: 0, Args: []Arg{I("step", 0)}})
	w.Emit(Event{Kind: KindInstant, Name: "fault", Cat: "fault",
		WallNs: 5_500_000, SimNs: 100})
	w.Emit(Event{Kind: KindEnd, Name: "superstep", Cat: "pregel",
		WallNs: 6_000_000, SimNs: 200})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	var events []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal([]byte(out), &events); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, out)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	// Timestamps are µs relative to the first event.
	if events[0].Ts != 0 || events[1].Ts != 500 || events[2].Ts != 1000 {
		t.Fatalf("ts = %v %v %v, want 0 500 1000", events[0].Ts, events[1].Ts, events[2].Ts)
	}
	if events[1].S != "t" {
		t.Fatalf("instant missing s:t scope")
	}
	if events[0].S != "" || events[2].S != "" {
		t.Fatalf("span events must not carry an instant scope")
	}
	for i, e := range events {
		if e.Pid != 1 || e.Tid != 1 {
			t.Fatalf("event %d: pid/tid = %d/%d", i, e.Pid, e.Tid)
		}
		if _, ok := e.Args["sim_us"]; !ok {
			t.Fatalf("event %d: args missing sim_us", i)
		}
	}
	if events[0].Args["step"] != float64(0) {
		t.Fatalf("arg step = %v", events[0].Args["step"])
	}
	// A crash-truncated trace (no Close) must still be salvageable: the
	// format tolerates a missing trailing bracket.
	if !strings.HasPrefix(out, "[\n") || !strings.HasSuffix(out, "\n]\n") {
		t.Fatalf("unexpected array framing:\n%s", out)
	}
}

func TestJSONStringEscaping(t *testing.T) {
	var sb strings.Builder
	w := NewJSONLWriter(&sb)
	w.Emit(Event{Kind: KindBegin, Name: "we\"ird\\na\nme\t\x01", Cat: "c"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(sb.String())), &m); err != nil {
		t.Fatalf("escaped output does not parse: %v\n%s", err, sb.String())
	}
	if m["name"] != "we\"ird\\na\nme\t\x01" {
		t.Fatalf("name round-trip = %q", m["name"])
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("pregel_messages_local_total").Add(10)
	r.Counter("pregel_messages_local_total").Add(5) // same instrument
	r.Gauge("pregel_vertices_active").Set(42)
	h := r.Histogram("pregel_inbox_queue_depth")
	h.Observe(0.5)
	h.Observe(7)
	h.Observe(50_000)
	h.Observe(9_999_999) // beyond the last bound: +Inf only

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE pregel_messages_local_total counter
pregel_messages_local_total 15
# TYPE pregel_vertices_active gauge
pregel_vertices_active 42
# TYPE pregel_inbox_queue_depth histogram
pregel_inbox_queue_depth_bucket{le="1"} 1
pregel_inbox_queue_depth_bucket{le="10"} 2
pregel_inbox_queue_depth_bucket{le="100"} 2
pregel_inbox_queue_depth_bucket{le="1000"} 2
pregel_inbox_queue_depth_bucket{le="10000"} 2
pregel_inbox_queue_depth_bucket{le="100000"} 3
pregel_inbox_queue_depth_bucket{le="1000000"} 3
pregel_inbox_queue_depth_bucket{le="+Inf"} 4
pregel_inbox_queue_depth_sum 10050006
pregel_inbox_queue_depth_count 4
`
	if sb.String() != want {
		t.Fatalf("prometheus dump:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	// Nil registries hand out throwaway instruments: no panics, no effects.
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}
