package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadTraceChrome(t *testing.T) {
	p := writeFile(t, "trace.json", `[
{"name":"job","cat":"pregel","ph":"B","ts":0.000,"pid":1,"tid":1,"args":{"sim_us":0.000}},
{"name":"fault","cat":"fault","ph":"i","ts":1.500,"s":"t","pid":1,"tid":1,"args":{"sim_us":2.000,"worker":3}},
{"name":"job","cat":"pregel","ph":"E","ts":9.000,"pid":1,"tid":1,"args":{"sim_us":12.000}}
]`)
	events, err := loadTrace(p, "chrome")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if err := checkEvents(events, []string{"pregel", "fault"}); err != nil {
		t.Fatal(err)
	}
	if err := checkEvents(events, []string{"workflow"}); err == nil {
		t.Fatal("missing category not reported")
	}
}

func TestLoadTraceJSONL(t *testing.T) {
	p := writeFile(t, "trace.jsonl",
		`{"ph":"B","name":"op","cat":"workflow","wall_ns":100,"args":{"sim_us":0.000,"op":"build"}}
{"ph":"E","name":"op","cat":"workflow","wall_ns":200,"args":{"sim_us":5.000,"op":"build","alloc_bytes":4096,"alloc_objects":3,"gc_cpu_ns":0,"heap_live_max_bytes":65536}}
`)
	events, err := loadTrace(p, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if err := checkEvents(events, []string{"workflow"}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckEventsOpEndMemory: a workflow op End span must carry each memory
// arg as a number.
func TestCheckEventsOpEndMemory(t *testing.T) {
	full := map[string]any{"op": "build", "alloc_bytes": 4096.0, "alloc_objects": 3.0, "gc_cpu_ns": 0.0, "heap_live_max_bytes": 65536.0}
	span := func(args map[string]any) []event {
		return []event{{Name: "op", Cat: "workflow", Ph: "B"}, {Name: "op", Cat: "workflow", Ph: "E", Args: args}}
	}
	if err := checkEvents(span(full), nil); err != nil {
		t.Fatal(err)
	}
	for _, a := range opEndArgs {
		args := map[string]any{}
		for k, v := range full {
			args[k] = v
		}
		delete(args, a)
		if err := checkEvents(span(args), nil); err == nil || !strings.Contains(err.Error(), a) {
			t.Errorf("op End span without %s: %v", a, err)
		}
		args[a] = "many"
		if err := checkEvents(span(args), nil); err == nil {
			t.Errorf("op End span with a string %s accepted", a)
		}
	}
}

func TestCheckEventsUnbalanced(t *testing.T) {
	events := []event{
		{Name: "job", Cat: "pregel", Ph: "B"},
		{Name: "job", Cat: "pregel", Ph: "B"},
		{Name: "job", Cat: "pregel", Ph: "E"},
	}
	err := checkEvents(events, nil)
	if err == nil || !strings.Contains(err.Error(), "unbalanced") {
		t.Fatalf("unbalanced spans not reported: %v", err)
	}
	if err := checkEvents([]event{{Name: "job", Cat: "p", Ph: "E"}}, nil); err == nil {
		t.Fatal("end-before-begin not reported")
	}
	if err := checkEvents([]event{{Name: "x", Cat: "c", Ph: "Q"}}, nil); err == nil {
		t.Fatal("unknown phase not reported")
	}
	if err := checkEvents(nil, nil); err == nil {
		t.Fatal("empty trace not reported")
	}
}

func TestCheckMetrics(t *testing.T) {
	good := writeFile(t, "metrics.prom", `# TYPE pregel_messages_local_total counter
pregel_messages_local_total 15
# TYPE pregel_inbox_queue_depth histogram
pregel_inbox_queue_depth_bucket{le="1"} 1
pregel_inbox_queue_depth_bucket{le="+Inf"} 2
pregel_inbox_queue_depth_sum 11
pregel_inbox_queue_depth_count 2
`)
	n, err := checkMetrics(good, []string{"pregel_messages_local_total"})
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := checkMetrics(good, []string{"absent_metric"}); err == nil {
		t.Fatal("missing family not reported")
	}
	orphan := writeFile(t, "orphan.prom", "some_metric 1\n")
	if _, err := checkMetrics(orphan, nil); err == nil {
		t.Fatal("sample without # TYPE not reported")
	}
	badType := writeFile(t, "badtype.prom", "# TYPE x summary\nx 1\n")
	if _, err := checkMetrics(badType, nil); err == nil {
		t.Fatal("unknown metric type not reported")
	}
}
