package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary when a
// session re-runs it as the reference load.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == refloadArg {
		refload()
		return
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricTables checks the names and counts against the limits of the
// benchmark contract.
func TestMetricTables(t *testing.T) {
	if n := len(allWorkloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range allWorkloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.sameOutputAs != "" {
			if _, ok := findWorkload(w.sameOutputAs); !ok {
				t.Errorf("workload %s: sameOutputAs names unknown workload %q", w.name, w.sameOutputAs)
			}
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	for n := range exactRepeat {
		if !seen[n] {
			t.Errorf("exactRepeat names unknown metric %q", n)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root lists
// exactly the workloads and metrics of the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != d.Bound {
				t.Errorf("%s metric %s: bound differs from the harness's %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v %v %v", q1, med, q3)
	}
}

// TestSmoke runs the whole harness on 20 kbp genomes: the full report, its
// schema, -compare on it, and the single-workload result lines.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the assembler")
	}
	ctx := context.Background()
	out := filepath.Join(t.TempDir(), "result.json")
	var stderr bytes.Buffer
	if code := realMain(ctx, []string{"-smoke", "-seed", "7", "-out", out}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("schema", func(t *testing.T) {
		var loose map[string]any
		if err := json.Unmarshal(raw, &loose); err != nil {
			t.Fatal(err)
		}
		if claim, ok := loose["claim"]; !ok || claim != nil {
			t.Errorf("claim = %v, want null", claim)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		h := rep.Host
		if rep.Schema != "ppa-benchmark/1" || rep.Seed != 7 || rep.Reps != 1 || !rep.Smoke {
			t.Errorf("header = %q seed %d reps %d smoke %v", rep.Schema, rep.Seed, rep.Reps, rep.Smoke)
		}
		if h.NProc < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.Kernel == "" || h.GitCommit == "" || h.BuildS <= 0 {
			t.Errorf("incomplete provenance: %+v", h)
		}
		if rep.OpsAttempted == 0 || rep.OpsFailed != 0 {
			t.Errorf("ops attempted %d, failed %d", rep.OpsAttempted, rep.OpsFailed)
		}
		if len(rep.Workloads) != len(allWorkloads) {
			t.Fatalf("%d workloads reported", len(rep.Workloads))
		}
		sha := map[string]string{}
		for _, wr := range rep.Workloads {
			sha[wr.Name] = wr.ContigsSHA256
			for _, d := range endToEnd {
				m, ok := wr.EndToEnd[d.Name]
				if !ok || m.Value <= 0 || m.Unit != d.Unit || m.Bound == nil {
					t.Errorf("%s: end-to-end metric %s = %+v", wr.Name, d.Name, m)
				}
			}
			for _, d := range perLayer {
				if m, ok := wr.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: per-layer metric %s = %+v", wr.Name, d.Name, m)
				}
			}
			if m := wr.EndToEnd["wall_s"]; m.N != 1 || len(m.Samples) != 1 {
				t.Errorf("%s: wall_s carries %d raw samples, want 1", wr.Name, len(m.Samples))
			}
			for _, name := range []string{"core.build_s", "core.label_s", "pregel.mr.reduce_s", "pregel.phase.compute_s", "pregel.supersteps", "runtime.alloc_bytes", "proc.cpu_s"} {
				if wr.PerLayer[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", wr.Name, name, wr.PerLayer[name].Value)
				}
			}
			if wr.InprocUntracedS <= 0 || wr.InprocTracedS <= 0 {
				t.Errorf("%s: in-process walls %v / %v", wr.Name, wr.InprocUntracedS, wr.InprocTracedS)
			}
		}
		if sha["pe120k"] == "" || sha["pe120k"] != sha["pe120k-par-ckpt"] {
			t.Errorf("pe120k and pe120k-par-ckpt contigs differ: %q vs %q", sha["pe120k"], sha["pe120k-par-ckpt"])
		}
	})

	t.Run("compare", func(t *testing.T) {
		if beyond, err := compareFiles(io.Discard, out, out); err != nil || beyond != 0 {
			t.Errorf("a file against itself: %d beyond, err %v", beyond, err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		m := rep.Workloads[0].EndToEnd["wall_s"]
		m.Value *= 2
		rep.Workloads[0].EndToEnd["wall_s"] = m
		n := rep.Workloads[0].PerLayer["pregel.msgs_remote"]
		n.Value++
		rep.Workloads[0].PerLayer["pregel.msgs_remote"] = n
		slower := filepath.Join(t.TempDir(), "slower.json")
		if err := rep.write(slower); err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		beyond, err := compareFiles(&table, out, slower)
		if err != nil || beyond != 2 {
			t.Errorf("doubled wall_s and one more message: %d beyond, err %v\n%s", beyond, err, table.String())
		}
	})

	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		t.Run([]string{"trace0", "trace1"}[trace], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", "noisy90k", "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "-smoke"}
			if code := realMain(ctx, args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 {
				t.Errorf("result keys %v, want exactly correct, attempted, failed, metrics", res)
			}
			var cr contractResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
				t.Fatal(err)
			}
			if !cr.Correct || cr.Attempted < 1 || cr.Failed != 0 {
				t.Errorf("result %+v", cr)
			}
			if len(cr.Metrics) != len(defs) {
				t.Errorf("%d metrics, want %d", len(cr.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := cr.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("metric %s = %+v", d.Name, m)
				}
			}
		})
	}
}

// TestFailingChildIsCounted gives the assembler child a flag it rejects:
// the runs must show up as failed operations, not abort the harness.
func TestFailingChildIsCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the assembler")
	}
	ctx := context.Background()
	s, err := newSession(ctx, 1, true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.asmMore = []string{"-no-such-flag"}
	w, _ := findWorkload("chains150k-sv")
	rep, err := runReport(ctx, s, []workload{w}, 2)
	if rep == nil {
		t.Fatalf("no report: %v", err)
	}
	if err == nil {
		t.Error("a workload without a single timed run was reported as complete")
	}
	wr := rep.Workloads[0]
	if rep.OpsFailed != 2 || wr.OpsFailed != 2 || len(wr.Failures) != 2 {
		t.Errorf("ops failed %d, failures %q, want the 2 assembler runs", rep.OpsFailed, wr.Failures)
	}
	if _, ok := wr.EndToEnd["wall_s"]; ok {
		t.Error("a failed run contributed a timing")
	}
}
