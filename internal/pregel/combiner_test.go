package pregel

import "testing"

func TestCombinerReducesMessages(t *testing.T) {
	// 100 vertices each send 1 to vertex 0: without a combiner that is 100
	// messages; with a sum combiner at most one per worker.
	run := func(combine bool) (int64, int) {
		g := NewGraph[int, int](Config{Workers: 4})
		if combine {
			g.SetCombiner(func(a, b int) int { return a + b })
		}
		for i := 0; i < 100; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			if ctx.Superstep() == 0 {
				ctx.Send(0, 1)
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				*val += m
			}
			ctx.VoteToHalt()
		})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := g.Value(0)
		return st.Messages, v
	}
	plainMsgs, plainSum := run(false)
	combMsgs, combSum := run(true)
	if plainSum != 100 || combSum != 100 {
		t.Errorf("sums = %d/%d, want 100/100", plainSum, combSum)
	}
	if plainMsgs != 100 {
		t.Errorf("uncombined messages = %d, want 100", plainMsgs)
	}
	if combMsgs > 4 {
		t.Errorf("combined messages = %d, want <= 4 (one per worker)", combMsgs)
	}
}

func TestCombinerPreservesPerDestinationIsolation(t *testing.T) {
	// Messages to different destinations must not be folded together.
	g := NewGraph[int, int](Config{Workers: 2})
	g.SetCombiner(func(a, b int) int { return a + b })
	for i := 0; i < 10; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		if ctx.Superstep() == 0 {
			// Everyone sends its own ID value to id/2.
			ctx.Send(id/2, int(id))
			ctx.VoteToHalt()
			return
		}
		for _, m := range msgs {
			*val += m
		}
		ctx.VoteToHalt()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex d receives ids 2d and 2d+1.
	for d := VertexID(0); d < 5; d++ {
		v, _ := g.Value(d)
		want := int(2*d) + int(2*d) + 1
		if v != want {
			t.Errorf("vertex %d sum = %d, want %d", d, v, want)
		}
	}
}

func TestCombineEnvelopesOrderStable(t *testing.T) {
	envs := []envelope[int]{{dst: 5, msg: 1}, {dst: 3, msg: 10}, {dst: 5, msg: 2}, {dst: 3, msg: 20}, {dst: 9, msg: 7}}
	out := combineEnvelopes(envs, func(a, b int) int { return a + b })
	if len(out) != 3 {
		t.Fatalf("combined to %d envelopes, want 3", len(out))
	}
	if out[0].dst != 5 || out[0].msg != 3 {
		t.Errorf("out[0] = %+v", out[0])
	}
	if out[1].dst != 3 || out[1].msg != 30 {
		t.Errorf("out[1] = %+v", out[1])
	}
	if out[2].dst != 9 || out[2].msg != 7 {
		t.Errorf("out[2] = %+v", out[2])
	}
}

// TestCombinerDeterministicUnderParallel checks the engine's determinism
// guarantee with goroutine-per-worker execution: each worker's outbox is
// folded in sorted-vertex emission order and delivered in worker order, so
// even an order-sensitive fold must produce identical results run after run
// and agree with sequential execution. (API combiners must be commutative
// and associative; the order-sensitive fold here exists to catch scheduling
// races that a commutative fold would mask.)
func TestCombinerDeterministicUnderParallel(t *testing.T) {
	run := func(parallel bool) (int64, []int64) {
		g := NewGraph[int64, int64](Config{Workers: 8, Parallel: parallel})
		g.SetCombiner(func(a, b int64) int64 { return a*1000003 + b })
		for i := 0; i < 400; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		st, err := g.Run(func(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
			if ctx.Superstep() == 0 {
				// Fan-in: everyone messages id%7, creating many combinable
				// destinations per worker.
				ctx.Send(id%7, int64(id)+1)
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				*val = *val*31 + m // order-sensitive apply
			}
			ctx.VoteToHalt()
		})
		if err != nil {
			t.Fatal(err)
		}
		var vals []int64
		g.ForEach(func(id VertexID, v *int64) { vals = append(vals, *v) })
		return st.Messages, vals
	}

	refMsgs, refVals := run(false)
	for trial := 0; trial < 5; trial++ {
		msgs, vals := run(true)
		if msgs != refMsgs {
			t.Fatalf("trial %d: parallel messages = %d, sequential = %d", trial, msgs, refMsgs)
		}
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("trial %d: vertex %d value %d != sequential %d", trial, i, vals[i], refVals[i])
			}
		}
	}
}

// combineEnvelopes folds messages sharing a destination, preserving the
// first-occurrence order of destinations for determinism. It is the
// reference semantics of the engine's eager at-Send combine (which folds
// into the same lane positions in the same left-to-right order); the fuzz
// suite asserts the two stay equivalent.
func combineEnvelopes[M any](envs []envelope[M], fn func(a, b M) M) []envelope[M] {
	if len(envs) < 2 {
		return envs
	}
	idx := make(map[VertexID]int, len(envs))
	out := envs[:0]
	for _, e := range envs {
		if i, ok := idx[e.dst]; ok {
			out[i].msg = fn(out[i].msg, e.msg)
			continue
		}
		idx[e.dst] = len(out)
		out = append(out, e)
	}
	return out
}
