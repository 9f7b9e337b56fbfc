package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceRunByteIdentical is the acceptance check for the telemetry seam:
// running the golden pipeline with full observability switched on (chrome
// trace, metrics dump, checkpointing every 5 supersteps) must write
// byte-identical contig and scaffold FASTA to a plain run, and the trace
// must be valid Perfetto-loadable JSON containing spans for every layer —
// workflow ops, pregel jobs and supersteps, compute/shuffle/barrier
// sub-phases, MR phases and checkpoint saves.
func TestTraceRunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)

	runOnce := func(suffix string, observe bool) (contigs, scaffolds []byte) {
		o := defaultOpts(readsPath, filepath.Join(dir, "contigs_"+suffix+".fasta"))
		o.K = 21
		o.Workers = 4
		o.scaffoldOut = filepath.Join(dir, "scaffolds_"+suffix+".fasta")
		o.Scaffold.InsertMean = 650
		o.Scaffold.InsertSD = 55
		if observe {
			o.trace = filepath.Join(dir, "trace.json")
			o.traceFormat = "chrome"
			o.metricsOut = filepath.Join(dir, "metrics.prom")
			o.CheckpointEvery = 5
		}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(o.out)
		if err != nil {
			t.Fatal(err)
		}
		s, err := os.ReadFile(o.scaffoldOut)
		if err != nil {
			t.Fatal(err)
		}
		return c, s
	}

	plainC, plainS := runOnce("plain", false)
	tracedC, tracedS := runOnce("traced", true)
	if !bytes.Equal(plainC, tracedC) {
		t.Errorf("contig FASTA differs between plain and traced runs")
	}
	if !bytes.Equal(plainS, tracedS) {
		t.Errorf("scaffold FASTA differs between plain and traced runs")
	}

	// The chrome trace must parse as a complete JSON array with the full
	// span taxonomy present and begin/end balanced.
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	cats := map[string]bool{}
	open := map[string]int{}
	for i, e := range events {
		cats[e.Cat] = true
		if e.Ts < 0 {
			t.Fatalf("event %d: negative ts", i)
		}
		switch e.Ph {
		case "B":
			open[e.Cat+"/"+e.Name]++
		case "E":
			open[e.Cat+"/"+e.Name]--
		}
	}
	for _, want := range []string{"workflow", "pregel", "phase", "mr", "checkpoint"} {
		if !cats[want] {
			t.Errorf("trace has no %q spans", want)
		}
	}
	for key, n := range open {
		if n != 0 {
			t.Errorf("unbalanced span %s: %d left open", key, n)
		}
	}

	// The metrics dump must carry the engine's counter families.
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE pregel_messages_local_total counter",
		"# TYPE pregel_messages_remote_total counter",
		"# TYPE pregel_supersteps_total counter",
		"# TYPE pregel_checkpoint_saves_total counter",
		"# TYPE workflow_ops_total counter",
		"# TYPE pregel_inbox_queue_depth histogram",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, prom)
		}
	}
}

// TestTraceJSONLFormat exercises the -trace-format=jsonl path: every line
// must parse as a standalone JSON object with the documented fields.
func TestTraceJSONLFormat(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	o := defaultOpts(readsPath, filepath.Join(dir, "contigs.fasta"))
	o.K = 21
	o.Workers = 4
	o.trace = filepath.Join(dir, "trace.jsonl")
	o.traceFormat = "jsonl"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short trace: %d lines", len(lines))
	}
	for i, line := range lines {
		var e struct {
			Ph     string          `json:"ph"`
			Name   string          `json:"name"`
			Cat    string          `json:"cat"`
			WallNs int64           `json:"wall_ns"`
			Args   json.RawMessage `json:"args"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i+1, err, line)
		}
		if e.Ph == "" || e.Name == "" || e.Cat == "" || e.WallNs == 0 || len(e.Args) == 0 {
			t.Fatalf("line %d missing fields: %s", i+1, line)
		}
	}
}

// TestProfilingFlags exercises -cpuprofile/-memprofile: both files must be
// written and non-empty, and the flags must not perturb the run.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	o := defaultOpts(readsPath, filepath.Join(dir, "contigs.fasta"))
	o.K = 21
	o.Workers = 4
	o.Parallel = true // exercise the per-goroutine label path too
	o.cpuProfile = filepath.Join(dir, "cpu.pprof")
	o.memProfile = filepath.Join(dir, "mem.pprof")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.cpuProfile, o.memProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestObservabilityFlagValidation locks the flag-combination errors.
func TestObservabilityFlagValidation(t *testing.T) {
	dir := t.TempDir()
	o := defaultOpts("nonexistent.fastq", filepath.Join(dir, "out.fasta"))
	o.traceFormat = "chrome" // without -trace
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-trace-format requires -trace") {
		t.Errorf("-trace-format without -trace: err = %v", err)
	}
	o = defaultOpts("nonexistent.fastq", filepath.Join(dir, "out.fasta"))
	o.trace = filepath.Join(dir, "t.json")
	o.traceFormat = "perfetto"
	if err := run(o); err == nil || !strings.Contains(err.Error(), "unknown -trace-format") {
		t.Errorf("bad -trace-format: err = %v", err)
	}
}
