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
// guarantee under the parallel schedule: each worker's outbox is
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

// envelope is one routed message: the reference tests' array-of-structs
// form of a msgLane entry.
type envelope[M any] struct {
	dst VertexID
	msg M
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

// fuseVal is the vertex value of the fusion test: the running sum of
// received messages plus the largest inbox the vertex has ever seen in a
// single compute call.
type fuseVal struct {
	Sum   int64
	MaxIn int64
}

// fanInCompute is a hub fan-in job: every superstep each vertex sends a
// distinct value to hub id%4, so each hub's inbox holds n/4 combinable
// messages per superstep.
func fanInCompute(n, iters int) Compute[fuseVal, int64] {
	return func(ctx *Context[int64], id VertexID, v *fuseVal, msgs []int64) {
		if int64(len(msgs)) > v.MaxIn {
			v.MaxIn = int64(len(msgs))
		}
		for _, m := range msgs {
			v.Sum += m
		}
		if ctx.Superstep() >= iters {
			ctx.VoteToHalt()
			return
		}
		ctx.Send(id%4, int64(id)*1000+int64(ctx.Superstep()))
	}
}

// TestTotalCombinerFusion: SetTotalCombiner promises the combiner folds the
// entire cross-worker fan-in, so compute must observe at most one message
// per vertex per superstep while producing the same sums as an ordinary
// per-worker combiner.
func TestTotalCombinerFusion(t *testing.T) {
	const n, iters = 64, 6
	run := func(total bool, workers int, parallel bool) map[VertexID]fuseVal {
		g := NewGraph[fuseVal, int64](Config{Workers: workers, Parallel: parallel})
		if total {
			g.SetTotalCombiner(func(a, b int64) int64 { return a + b })
		} else {
			g.SetCombiner(func(a, b int64) int64 { return a + b })
		}
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), fuseVal{})
		}
		if _, err := g.Run(fanInCompute(n, iters), WithName("fusion")); err != nil {
			t.Fatal(err)
		}
		out := map[VertexID]fuseVal{}
		g.ForEach(func(id VertexID, v *fuseVal) { out[id] = *v })
		return out
	}

	want := run(false, 1, false) // ordinary combiner, sequential
	for _, workers := range []int{1, 4, 7} {
		for id, v := range run(true, workers, true) {
			if v.MaxIn > 1 {
				t.Errorf("w%d: vertex %d saw %d messages in one superstep; total combiner should fuse to <= 1", workers, id, v.MaxIn)
			}
			if v.Sum != want[id].Sum {
				t.Errorf("w%d: vertex %d sum = %d, want %d", workers, id, v.Sum, want[id].Sum)
			}
		}
	}
}

// TestSetCombinerLockedAtRunStart: installing a combiner from inside
// compute (mid-run) must not affect the running job — the engine snapshots
// the combiner when Run starts. A graph that installs the same combiner
// before Run demonstrates what taking effect would have looked like.
func TestSetCombinerLockedAtRunStart(t *testing.T) {
	const n = 100
	job := func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		for _, m := range msgs {
			*val += m
		}
		if ctx.Superstep() >= 2 {
			ctx.VoteToHalt()
			return
		}
		ctx.Send(0, 1)
	}
	build := func() *Graph[int, int] {
		g := NewGraph[int, int](Config{Workers: 4})
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		return g
	}

	plain := build()
	plainStats, err := plain.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	plainHub, _ := plain.Value(0)

	// Same job, but superstep 1 sneaks a combiner in mid-run.
	sneaky := build()
	sneakyStats, err := sneaky.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		if ctx.Superstep() == 1 {
			sneaky.SetCombiner(func(a, b int) int { return a + b })
		}
		job(ctx, id, val, msgs)
	})
	if err != nil {
		t.Fatal(err)
	}
	sneakyHub, _ := sneaky.Value(0)
	if sneakyHub != plainHub {
		t.Errorf("mid-run SetCombiner changed the result: hub = %d, want %d", sneakyHub, plainHub)
	}
	if sneakyStats.Messages != plainStats.Messages {
		t.Errorf("mid-run SetCombiner took effect during the run: %d messages, want the uncombined %d",
			sneakyStats.Messages, plainStats.Messages)
	}

	// Installed before Run, the combiner does take effect — proving the
	// sneaky run's equality above is meaningful, not a no-op combiner.
	upfront := build()
	upfront.SetCombiner(func(a, b int) int { return a + b })
	upfrontStats, err := upfront.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	upfrontHub, _ := upfront.Value(0)
	if upfrontHub != plainHub {
		t.Errorf("combined run hub = %d, want %d", upfrontHub, plainHub)
	}
	if upfrontStats.Messages >= plainStats.Messages {
		t.Errorf("up-front combiner did not reduce messages: %d vs %d", upfrontStats.Messages, plainStats.Messages)
	}
}
