package pregel

import (
	"testing"

	"ppaassembler/internal/telemetry"
)

// TestShuffleAllocRegressionFence locks the telemetry contract on the
// shuffle hot path: with tracing and metrics disabled (the default nil
// Tracer/Registry), the canonical BenchmarkShuffle workload must stay at its
// pre-telemetry allocation level. Every emission site in the engine is
// guarded by a nil check before any Event or arg slice is built, so
// disabled telemetry must add zero allocs/op; the ceiling below is the
// seed's steady-state figure (~150 allocs/op from arena bookkeeping) with
// generous headroom so unrelated noise does not flake the fence.
func TestShuffleAllocRegressionFence(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark fence is slow")
	}
	res := testing.Benchmark(func(b *testing.B) {
		runShuffleWorkload(b, false, 4)
	})
	if allocs := res.AllocsPerOp(); allocs > 2000 {
		t.Errorf("shuffle workload with telemetry disabled allocates %d allocs/op, fence is 2000 — a hot-path emission site is missing its nil guard", allocs)
	}
}

// TestShuffleTracedStillBounded is the companion sanity check: with a live
// tracer and registry attached, the same workload emits only per-superstep
// (coordinator-side) events, so allocations must grow by a bounded constant
// per superstep — not per message.
func TestShuffleTracedStillBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark fence is slow")
	}
	res := testing.Benchmark(func(b *testing.B) {
		const n = 20_000
		rec := telemetry.NewRecorder()
		g := NewGraph[int64, int64](Config{
			Workers: 4, Tracer: rec, Metrics: telemetry.NewRegistry(),
		})
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Reset()
			_, err := g.Run(func(ctx *Context[int64], id VertexID, val *int64, in []int64) {
				if ctx.Superstep() >= 6 {
					ctx.VoteToHalt()
					return
				}
				for j := 0; j < 8; j++ {
					ctx.Send(VertexID((uint64(id)*2654435761+uint64(j)*40503+7)%n), int64(id))
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	// ~960k messages/op flow through the shuffle; tracing them per-message
	// would add six figures of allocations. Per-superstep emission stays in
	// the hundreds.
	if allocs := res.AllocsPerOp(); allocs > 5000 {
		t.Errorf("traced shuffle workload allocates %d allocs/op — emission has leaked into the per-message path", allocs)
	}
}
