package pregel

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestShuffleParallelMatchesSequentialStress runs a messaging-heavy random
// job under every combination of worker count and execution mode and demands
// bit-identical vertex values and identical Stats (messages, supersteps,
// drops) between parallel and sequential execution — the determinism
// contract of Config.Parallel.
func TestShuffleParallelMatchesSequentialStress(t *testing.T) {
	const n = 500
	run := func(workers int, parallel bool) (map[VertexID]int64, *Stats) {
		g := NewGraph[int64, int64](Config{Workers: workers, Parallel: parallel})
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		st, err := g.Run(func(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
			for _, m := range msgs {
				*val = *val*31 + m // order-sensitive fold over the inbox
			}
			if ctx.Superstep() >= 8 {
				ctx.VoteToHalt()
				return
			}
			// Deterministic pseudo-random fan-out, including messages that
			// drop (to exercise the dropped-message path) and self-sends.
			h := uint64(id)*2654435761 + uint64(ctx.Superstep())*97
			for j := 0; j < int(h%5); j++ {
				dst := VertexID((h + uint64(j)*131) % (n + 20)) // some targets do not exist
				ctx.Send(dst, int64(id)<<8|int64(j))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[VertexID]int64, n)
		g.ForEach(func(id VertexID, v *int64) { out[id] = *v })
		return out, st
	}
	for _, workers := range []int{1, 2, 4, 7} {
		seqVals, seqSt := run(workers, false)
		for trial := 0; trial < 3; trial++ {
			parVals, parSt := run(workers, true)
			if parSt.Messages != seqSt.Messages || parSt.Supersteps != seqSt.Supersteps ||
				parSt.DroppedMessages != seqSt.DroppedMessages {
				t.Fatalf("workers=%d trial=%d: parallel stats %+v != sequential %+v",
					workers, trial, parSt, seqSt)
			}
			for id, v := range seqVals {
				if parVals[id] != v {
					t.Fatalf("workers=%d trial=%d vertex %d: parallel %d != sequential %d",
						workers, trial, id, parVals[id], v)
				}
			}
		}
	}
}

// TestShuffleSteadyStateAllocationFree verifies the arena design: once lanes
// and arenas have warmed up, additional supersteps of a message-heavy job
// allocate (almost) nothing. It compares total allocations of a short and a
// long run of the same per-superstep workload; the difference divided by the
// extra supersteps must be far below one allocation per vertex. A warmed
// Run's own fixed cost is capped too: 27 allocations per 10-superstep Run
// at commit 8584b4f, ceiling 27 × 1.25.
func TestShuffleSteadyStateAllocationFree(t *testing.T) {
	const n = 2000
	g := NewGraph[int64, int64](Config{Workers: 4})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	job := func(steps int) func() {
		return func() {
			_, err := g.Run(func(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
				for _, m := range msgs {
					*val += m
				}
				if ctx.Superstep() >= steps {
					ctx.VoteToHalt()
					return
				}
				for j := 0; j < 4; j++ {
					ctx.Send(VertexID((uint64(id)*2654435761+uint64(j))%n), int64(id))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	job(60)() // warm lanes and arenas past any growth
	shortAllocs := testing.AllocsPerRun(3, job(10))
	longAllocs := testing.AllocsPerRun(3, job(60))
	perStep := (longAllocs - shortAllocs) / 50
	// Aggregator flips allocate a handful of small maps per superstep; the
	// message path itself must add nothing per vertex (n=2000 messages*4
	// per superstep would show up immediately).
	if perStep > 16 {
		t.Errorf("steady-state shuffle allocates %.1f allocs/superstep (short=%.0f long=%.0f), want <= 16",
			perStep, shortAllocs, longAllocs)
	}
	if shortAllocs > 27*1.25 {
		t.Errorf("a warmed 10-superstep Run allocates %.0f times, want <= %.0f", shortAllocs, 27*1.25)
	}
}

// TestAggregatorSendParallelStress hammers every aggregator family and Send
// from all workers at once. Under -race this is the regression net for the
// engine's concurrent shuffle; in any mode it checks the aggregate values
// and fan-in sums survive parallel execution exactly.
func TestAggregatorSendParallelStress(t *testing.T) {
	const (
		n     = 800
		steps = 6
	)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 8 {
		workers = 8
	}
	g := NewGraph[int64, int64](Config{Workers: workers, Parallel: true})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	st, err := g.Run(func(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
		for _, m := range msgs {
			*val += m
		}
		s := ctx.Superstep()
		if s > 0 {
			// Every vertex checks the previous superstep's aggregates.
			if got := ctx.PrevAggSum("ones"); got != n {
				t.Errorf("superstep %d: PrevAggSum(ones) = %d, want %d", s, got, n)
			}
			if !ctx.PrevAggOr("or") {
				t.Errorf("superstep %d: PrevAggOr(or) = false, want true", s)
			}
		}
		if s >= steps {
			ctx.VoteToHalt()
			return
		}
		ctx.AggSum("ones", 1)
		ctx.AggOr("or", id == 0)
		ctx.AggOr("or", false)
		// All-to-few fan-in.
		ctx.Send(id%13, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Supersteps != steps+1 {
		t.Errorf("supersteps = %d, want %d", st.Supersteps, steps+1)
	}
	total := int64(0)
	g.ForEach(func(id VertexID, v *int64) { total += *v })
	if want := int64(n * steps); total != want {
		t.Errorf("fan-in sum = %d, want %d", total, want)
	}
}

// TestDeliverDropsToDeadVertexDeterministically: messages to vertices
// removed in the same superstep count as dropped identically in both modes.
func TestDeliverDropsToDeadVertexDeterministically(t *testing.T) {
	run := func(parallel bool) *Stats {
		g := NewGraph[int, int](Config{Workers: 4, Parallel: parallel})
		for i := 0; i < 40; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			switch ctx.Superstep() {
			case 0:
				ctx.Send((id+1)%40, 1) // everyone messages a neighbor
				if id%4 == 0 {
					ctx.RemoveSelf() // ... some of which die this superstep
					return
				}
			default:
			}
			ctx.VoteToHalt()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq, par := run(false), run(true)
	if seq.DroppedMessages != 10 {
		t.Errorf("sequential dropped = %d, want 10", seq.DroppedMessages)
	}
	if par.DroppedMessages != seq.DroppedMessages || par.Messages != seq.Messages {
		t.Errorf("parallel stats %+v != sequential %+v", par, seq)
	}
}

// TestMessageOrderMatchesDeliveryContract pins the engine's documented inbox
// order: messages arrive grouped by source worker (ascending), then in
// emission order within the source. A permutation-heavy sender exercises the
// counting-sort placement.
func TestMessageOrderMatchesDeliveryContract(t *testing.T) {
	const n = 120
	r := rand.New(rand.NewSource(7))
	plan := make([][]VertexID, n) // sender -> destinations, in emission order
	for i := range plan {
		k := r.Intn(6)
		for j := 0; j < k; j++ {
			plan[i] = append(plan[i], VertexID(r.Intn(n)))
		}
	}
	for _, workers := range []int{1, 3, 8} {
		for _, parallel := range []bool{false, true} {
			g := NewGraph[[]int64, int64](Config{Workers: workers, Parallel: parallel})
			for i := 0; i < n; i++ {
				g.AddVertex(VertexID(i), nil)
			}
			_, err := g.Run(func(ctx *Context[int64], id VertexID, val *[]int64, msgs []int64) {
				if ctx.Superstep() == 0 {
					for seq, dst := range plan[id] {
						ctx.Send(dst, int64(id)<<16|int64(seq))
					}
					ctx.VoteToHalt()
					return
				}
				*val = append([]int64(nil), msgs...)
				ctx.VoteToHalt()
			})
			if err != nil {
				t.Fatal(err)
			}
			g.ForEach(func(id VertexID, val *[]int64) {
				// Expected: for each source worker in ascending order, that
				// worker's senders in ascending vertex order, each sender's
				// messages in emission order.
				var want []int64
				for w := 0; w < workers; w++ {
					for src := 0; src < n; src++ {
						if g.WorkerOf(VertexID(src)) != w {
							continue
						}
						for seq, dst := range plan[src] {
							if dst == id {
								want = append(want, int64(src)<<16|int64(seq))
							}
						}
					}
				}
				if len(want) != len(*val) {
					t.Fatalf("workers=%d parallel=%v vertex %d: got %d msgs, want %d",
						workers, parallel, id, len(*val), len(want))
				}
				for i := range want {
					if (*val)[i] != want[i] {
						t.Fatalf("workers=%d parallel=%v vertex %d msg %d: got %x, want %x",
							workers, parallel, id, i, (*val)[i], want[i])
					}
				}
			})
		}
	}
}
