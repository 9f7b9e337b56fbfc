package core

import (
	"fmt"
	"strings"
	"testing"

	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/telemetry"
)

// traceReads builds a small deterministic read set for the trace matrix —
// the full example genome would make the 6-run matrix needlessly slow.
func traceReads(t *testing.T) []string {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{
		Name: "trace", Length: 12_000, Repeats: 2, RepeatLen: 200, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 100, Coverage: 12, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// traceAssemble runs the canned pipeline with a Recorder attached and
// returns the timestamp-stripped span signatures plus total message count
// from the metrics registry.
func traceAssemble(t *testing.T, reads []string, workers int, parallel bool) ([]string, int64) {
	t.Helper()
	opt := DefaultOptions(workers)
	opt.K = 21
	opt.Parallel = parallel
	rec := telemetry.NewRecorder()
	reg := telemetry.NewRegistry()
	opt.Tracer = rec
	opt.Metrics = reg
	if _, err := Assemble(pregel.ShardSlice(reads, workers), opt); err != nil {
		t.Fatal(err)
	}
	total := reg.Counter("pregel_messages_local_total").Value() +
		reg.Counter("pregel_messages_remote_total").Value()
	return rec.Signatures(), total
}

// TestTraceDeterminism is the telemetry half of the engine's determinism
// contract: the span sequence with timestamps stripped must be identical
// across Parallel on/off (span args carry only schedule-invariant totals),
// and its shape — the kind/cat/name sequence — must be identical across
// worker counts. Checkpointing stays off here:
// checkpoint byte counts legitimately vary with placement.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trace determinism matrix is slow")
	}
	reads := traceReads(t)
	workerCounts := []int{1, 4, 7}

	var baseShape []string // kind|cat|name sequence, the cross-worker invariant
	for _, workers := range workerCounts {
		baseSigs, baseMsgs := traceAssemble(t, reads, workers, false)
		if len(baseSigs) == 0 {
			t.Fatalf("workers=%d: no spans recorded", workers)
		}
		sigs, msgs := traceAssemble(t, reads, workers, true)
		if diff := firstDiff(baseSigs, sigs); diff != "" {
			t.Errorf("workers=%d: parallel span signatures differ from sequential: %s", workers, diff)
		}
		if msgs != baseMsgs {
			t.Errorf("workers=%d: parallel metrics message total %d != sequential %d", workers, msgs, baseMsgs)
		}
		shape := make([]string, len(baseSigs))
		for i, s := range baseSigs {
			if cut := strings.Index(s, "|"); cut >= 0 {
				// kind|cat|name|args... -> kind|cat|name
				parts := strings.SplitN(s, "|", 4)
				shape[i] = strings.Join(parts[:3], "|")
				continue
			}
			shape[i] = s
		}
		if baseShape == nil {
			baseShape = shape
			continue
		}
		if diff := firstDiff(baseShape, shape); diff != "" {
			t.Errorf("workers=%d: span shape differs from workers=%d: %s",
				workers, workerCounts[0], diff)
		}
	}
}

// firstDiff describes the first difference between two sequences, or
// returns "" when they are identical.
func firstDiff[T comparable](a, b []T) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	return ""
}

// TestTraceCoversEveryOp locks the span taxonomy at pipeline scale: a canned
// assembly must emit workflow plan+op spans, pregel job and superstep spans,
// compute/shuffle/barrier sub-phase spans, and MR map/shuffle/reduce spans —
// and every Begin must have a matching End.
func TestTraceCoversEveryOp(t *testing.T) {
	reads := traceReads(t)
	opt := DefaultOptions(4)
	opt.K = 21
	rec := telemetry.NewRecorder()
	opt.Tracer = rec
	if _, err := Assemble(pregel.ShardSlice(reads, 4), opt); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	open := map[string]int{}
	seen := map[string]bool{}
	for _, e := range events {
		key := e.Cat + "/" + e.Name
		seen[key] = true
		switch e.Kind {
		case telemetry.KindBegin:
			open[key]++
		case telemetry.KindEnd:
			open[key]--
			if open[key] < 0 {
				t.Fatalf("end without begin for %s", key)
			}
		}
	}
	for key, n := range open {
		if n != 0 {
			t.Errorf("unbalanced span %s: %d left open", key, n)
		}
	}
	for _, want := range []string{
		"workflow/plan", "workflow/op",
		"pregel/job", "pregel/superstep", "pregel/convert",
		"phase/compute", "phase/shuffle", "phase/barrier",
		"mr/mr", "mr/map", "mr/shuffle", "mr/reduce",
	} {
		if !seen[want] {
			t.Errorf("span %s never emitted; saw %v", want, keysOf(seen))
		}
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
