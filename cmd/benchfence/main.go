// Command benchfence compares a freshly emitted BENCH_pregel.json against
// the committed baseline and fails (exit 1) on regressions, in the spirit of
// benchstat but specialised to this repo's artifact schema.
//
//	go run ./cmd/benchfence -baseline BENCH_pregel.json -current BENCH_pregel.new.json -threshold 0.25
//
// Three classes of checks:
//
//   - Host-independent metrics are always compared: allocations per op,
//     checkpoint-codec sizes and the delta ratio, pipeline remote-message
//     fractions, and invariants that must hold on any machine (the
//     schedule leaves traffic untouched, a binary snapshot is smaller than
//     a gob one, a fault-free run restores nothing). The codec's encode
//     and decode speedups over gob are host timings and are not gated.
//   - Time-based metrics (ns/op, msgs/s) are compared only when baseline
//     and current were measured on a comparable host (same num_cpu and
//     go_max_procs); otherwise they are reported as skipped.
//   - The parallel-speedup gate binds only when BOTH artifacts carry
//     parallel_speedup_valid=true and the current GOMAXPROCS >= 4 — a
//     single-core runner cannot demonstrate parallel speedup, and its
//     ratio measures scheduler overhead, not the engine; comparing
//     against such a baseline would gate on noise.
//
// -threshold is the allowed fractional regression for ratio comparisons
// (0.25 = current may be up to 25% worse than baseline).
//
// A fourth mode, -calibrate, skips the comparison entirely: it reads the
// -current artifact's transport section and prints the CostModel parameters
// the measured wire implies (suggested BytesPerSecond from bytes-over-time,
// the mean per-frame wall time as an empirical latency floor) next to the
// defaults the simulation charges, so a drifted model is visible:
//
//	go run ./cmd/benchfence -calibrate -current BENCH_pregel.new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ppaassembler/internal/pregel"
)

// The structs below mirror the subset of the BENCH_pregel.json schema the
// fence reads (the emitter lives in bench_pregel_test.go at the repo root).
// Unknown fields are ignored, so the artifact can grow without breaking
// older fences.

type shuffleRow struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	LocalMsgs   int64   `json:"local_msgs"`
	RemoteMsgs  int64   `json:"remote_msgs"`
}

type codecStats struct {
	FullBytes  int     `json:"full_bytes"`
	GobBytes   int     `json:"gob_bytes"`
	DeltaBytes int     `json:"delta_bytes"`
	DeltaRatio float64 `json:"delta_ratio"`
}

type pipelineRow struct {
	Name           string  `json:"name"`
	RemoteFraction float64 `json:"remote_fraction"`
	NetSimSeconds  float64 `json:"net_sim_seconds"`
}

type checkpointIO struct {
	Saves        int64 `json:"saves"`
	Restores     int64 `json:"restores"`
	BytesWritten int64 `json:"bytes_written"`
}

type transportRow struct {
	FramesSent            int64   `json:"frames_sent"`
	BytesSent             int64   `json:"bytes_sent"`
	BytesReceived         int64   `json:"bytes_received"`
	RemoteMessages        int64   `json:"remote_messages"`
	MeasuredWireSeconds   float64 `json:"measured_wire_seconds"`
	MeasuredOverPredicted float64 `json:"measured_over_predicted"`
}

type artifact struct {
	NumCPU               int           `json:"num_cpu"`
	GoMaxProcs           int           `json:"go_max_procs"`
	Sequential           shuffleRow    `json:"sequential"`
	Parallel             shuffleRow    `json:"parallel"`
	ParallelSpeedup      float64       `json:"parallel_speedup"`
	ParallelSpeedupValid bool          `json:"parallel_speedup_valid"`
	Pipeline             []pipelineRow `json:"pipeline_partitioners"`
	CheckpointIO         checkpointIO  `json:"checkpoint_io"`
	CheckpointThroughput codecStats    `json:"checkpoint_throughput"`
	Transport            transportRow  `json:"transport"`
}

// report accumulates regressions (fail the fence) and notes (informational:
// skipped comparisons, measured ratios).
type report struct {
	regressions []string
	notes       []string
}

func (r *report) failf(format string, args ...any) {
	r.regressions = append(r.regressions, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkGrowth flags current > baseline*(1+threshold) for a
// smaller-is-better metric. The degenerate ends never pass silently: a
// zero baseline cannot gate anything, so the comparison is recorded as
// skipped; a zero current for a metric the baseline has means the section
// was dropped or the emitter broke — a ratio check would read that as a
// perfect score, so it fails instead.
func checkGrowth(r *report, name string, baseline, current, threshold float64) {
	if baseline <= 0 {
		r.notef("skipped: %s has no baseline value (baseline %.4g, current %.4g)", name, baseline, current)
		return
	}
	if current <= 0 {
		r.failf("%s vanished from the current artifact (baseline %.4g, current %.4g) — section dropped or emitter broken",
			name, baseline, current)
		return
	}
	if w := current/baseline - 1; w > threshold {
		r.failf("%s regressed %.1f%% (baseline %.4g, current %.4g, threshold %.0f%%)",
			name, 100*w, baseline, current, 100*threshold)
	}
}

// compare runs every fence check and returns the verdict.
func compare(baseline, current artifact, threshold float64) report {
	var r report

	// --- Host-independent: allocation counts on the shuffle workload. ---
	for _, m := range []struct {
		name      string
		base, cur shuffleRow
	}{
		{"sequential", baseline.Sequential, current.Sequential},
		{"parallel", baseline.Parallel, current.Parallel},
	} {
		checkGrowth(&r, m.name+" allocs/op", float64(m.base.AllocsPerOp), float64(m.cur.AllocsPerOp), threshold)
		checkGrowth(&r, m.name+" bytes/op", float64(m.base.BytesPerOp), float64(m.cur.BytesPerOp), threshold)
	}

	// --- Host-independent invariant: the schedule must not change traffic. ---
	if current.Parallel.LocalMsgs != current.Sequential.LocalMsgs ||
		current.Parallel.RemoteMsgs != current.Sequential.RemoteMsgs {
		r.failf("parallel schedule changed shuffle traffic: parallel %d/%d local/remote vs sequential %d/%d — determinism contract broken",
			current.Parallel.LocalMsgs, current.Parallel.RemoteMsgs,
			current.Sequential.LocalMsgs, current.Sequential.RemoteMsgs)
	}

	// --- Host-independent: checkpoint codec sizes, deterministic for the
	// fixed synthetic workload. ---
	ct, bt := current.CheckpointThroughput, baseline.CheckpointThroughput
	checkGrowth(&r, "checkpoint full_bytes", float64(bt.FullBytes), float64(ct.FullBytes), threshold)
	checkGrowth(&r, "checkpoint delta_ratio", bt.DeltaRatio, ct.DeltaRatio, threshold)
	if ct.FullBytes >= ct.GobBytes {
		r.failf("binary full snapshot (%d bytes) not smaller than gob (%d bytes)", ct.FullBytes, ct.GobBytes)
	}

	// --- Host-independent: checkpoint I/O of the fault-free pipeline. ---
	if current.CheckpointIO.Saves == 0 || current.CheckpointIO.BytesWritten == 0 {
		r.failf("checkpoint_io section empty: saves=%d bytes=%d",
			current.CheckpointIO.Saves, current.CheckpointIO.BytesWritten)
	}
	if current.CheckpointIO.Restores != 0 {
		r.failf("fault-free benchmark pipeline restored %d checkpoints", current.CheckpointIO.Restores)
	}

	// --- Host-independent: pipeline locality (remote fractions and the
	// communication-bound simulated makespan are deterministic). ---
	basePipe := map[string]pipelineRow{}
	for _, row := range baseline.Pipeline {
		basePipe[row.Name] = row
	}
	curPipe := map[string]bool{}
	for _, row := range current.Pipeline {
		curPipe[row.Name] = true
		b, ok := basePipe[row.Name]
		if !ok {
			r.notef("pipeline partitioner %q has no baseline row; skipping", row.Name)
			continue
		}
		checkGrowth(&r, "pipeline "+row.Name+" remote_fraction", b.RemoteFraction, row.RemoteFraction, threshold)
		checkGrowth(&r, "pipeline "+row.Name+" net_sim_seconds", b.NetSimSeconds, row.NetSimSeconds, threshold)
	}
	// A row the baseline gates on must not silently disappear — an emitter
	// that stops measuring a partitioner would otherwise weaken the fence.
	for _, row := range baseline.Pipeline {
		if !curPipe[row.Name] {
			r.failf("pipeline partitioner %q present in the baseline but missing from the current artifact", row.Name)
		}
	}

	// --- Time-based metrics: only on a comparable host. ---
	if baseline.NumCPU == current.NumCPU && baseline.GoMaxProcs == current.GoMaxProcs {
		for _, m := range []struct {
			name      string
			base, cur shuffleRow
		}{
			{"sequential", baseline.Sequential, current.Sequential},
			{"parallel", baseline.Parallel, current.Parallel},
		} {
			checkGrowth(&r, m.name+" ns/op", float64(m.base.NsPerOp), float64(m.cur.NsPerOp), threshold)
		}
	} else {
		r.notef("skipping ns/op comparison: baseline measured on %d CPU / GOMAXPROCS %d, current on %d / %d",
			baseline.NumCPU, baseline.GoMaxProcs, current.NumCPU, current.GoMaxProcs)
	}

	// --- Parallel speedup: binds only when the measurement means
	// something on BOTH sides (see parallel_speedup_valid in the artifact
	// schema). A baseline recorded on a 1-CPU host carries a meaningless
	// ratio (the committed artifact once held 0.92x from such a runner);
	// comparing against it — or gating a current artifact whose own flag is
	// false — would compare scheduler noise, so the gate is skipped and the
	// measured ratios are only reported. ---
	if baseline.ParallelSpeedupValid && current.ParallelSpeedupValid && current.GoMaxProcs >= 4 {
		if current.ParallelSpeedup <= 1.0 {
			r.failf("parallel shuffle not faster than sequential with GOMAXPROCS=%d (speedup %.2fx)",
				current.GoMaxProcs, current.ParallelSpeedup)
		}
	} else {
		r.notef("skipping parallel-speedup gate: baseline valid=%v, current valid=%v, GOMAXPROCS=%d (need both valid and >= 4); measured %.2fx parallel",
			baseline.ParallelSpeedupValid, current.ParallelSpeedupValid, current.GoMaxProcs,
			current.ParallelSpeedup)
	}

	// --- Transport: the wire volume of the fixed shuffle workload is
	// deterministic (lane codec + frame overhead), so byte growth is a
	// codec-bloat fence; wire *time* is a property of the host's loopback
	// stack and is only reported. ---
	tb, tc := baseline.Transport, current.Transport
	if tb.BytesSent > 0 && tc.BytesSent == 0 {
		r.failf("transport section vanished from the current artifact (baseline sent %d bytes)", tb.BytesSent)
	}
	checkGrowth(&r, "transport bytes_sent", float64(tb.BytesSent), float64(tc.BytesSent), threshold)
	checkGrowth(&r, "transport bytes_received", float64(tb.BytesReceived), float64(tc.BytesReceived), threshold)
	if tc.BytesSent > 0 && tc.RemoteMessages == 0 {
		r.failf("transport section sent %d bytes but recorded no remote messages", tc.BytesSent)
	}
	if tc.MeasuredWireSeconds > 0 {
		r.notef("transport wire time %.3fs measured, %.2fx the CostModel prediction (host-dependent, not gated)",
			tc.MeasuredWireSeconds, tc.MeasuredOverPredicted)
	}

	return r
}

func load(path string) (artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return artifact{}, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// calibrate prints the CostModel parameters the -current artifact's measured
// transport section implies, next to what the simulation charges by default.
// It is a reporting aid, not a fence: the measured wire is this host's
// loopback stack, so the output is advice for anyone tuning -cost flags, and
// a drift note when measured and modeled bandwidth diverge badly.
func calibrate(current artifact) error {
	t := current.Transport
	if t.MeasuredWireSeconds <= 0 || t.BytesSent == 0 {
		return fmt.Errorf("current artifact has no measured transport section (bytes_sent=%d, measured_wire_seconds=%g); re-emit with the transport benchmark enabled",
			t.BytesSent, t.MeasuredWireSeconds)
	}
	model := pregel.DefaultCost()
	wire := float64(t.BytesSent+t.BytesReceived) / t.MeasuredWireSeconds
	fmt.Printf("transport measured: %d bytes sent, %d received, %d frames in %.4fs\n",
		t.BytesSent, t.BytesReceived, t.FramesSent, t.MeasuredWireSeconds)
	fmt.Printf("suggested BytesPerSecond: %.0f (%.1f MiB/s); model default %.0f (%.1f MiB/s), measured/modeled %.2fx\n",
		wire, wire/(1<<20), model.BytesPerSecond, model.BytesPerSecond/(1<<20), wire/model.BytesPerSecond)
	if t.FramesSent > 0 {
		perFrame := t.MeasuredWireSeconds / float64(t.FramesSent)
		fmt.Printf("empirical per-frame wall time: %.1fµs/frame — a floor for SuperstepLatency; model default %s\n",
			perFrame*1e6, model.SuperstepLatency)
	}
	if t.MeasuredOverPredicted > 0 {
		fmt.Printf("measured_over_predicted (from emitter): %.2fx\n", t.MeasuredOverPredicted)
	}
	return nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_pregel.json", "committed benchmark artifact to compare against")
	currentPath := flag.String("current", "", "freshly emitted benchmark artifact (required)")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional regression for ratio comparisons (0.25 = 25%)")
	calibrateMode := flag.Bool("calibrate", false, "report the CostModel parameters the -current artifact's measured transport implies, then exit (no baseline comparison)")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchfence: -current is required")
		flag.Usage()
		os.Exit(2)
	}
	if *calibrateMode {
		current, err := load(*currentPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfence: %v\n", err)
			os.Exit(2)
		}
		if err := calibrate(current); err != nil {
			fmt.Fprintf(os.Stderr, "benchfence: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *threshold <= 0 {
		fmt.Fprintln(os.Stderr, "benchfence: -threshold must be positive")
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfence: %v\n", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfence: %v\n", err)
		os.Exit(2)
	}
	rep := compare(baseline, current, *threshold)
	for _, n := range rep.notes {
		fmt.Printf("note: %s\n", n)
	}
	if len(rep.regressions) == 0 {
		fmt.Printf("benchfence: OK — %s within %.0f%% of %s on all applicable metrics\n",
			*currentPath, 100**threshold, *baselinePath)
		return
	}
	for _, reg := range rep.regressions {
		fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", reg)
	}
	fmt.Fprintf(os.Stderr, "benchfence: %d regression(s) against %s\n", len(rep.regressions), *baselinePath)
	os.Exit(1)
}
