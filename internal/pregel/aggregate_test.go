package pregel

import (
	"fmt"
	"reflect"
	"testing"
)

// aggProbe is a job built to expose aggregator mistakes: contributions
// depend on the vertex (so per-worker accumulators differ and some workers
// contribute nothing to a name), one superstep contributes nothing at all
// (PrevAggMin must then report ok=false, PrevAggSum zero), and every vertex
// folds what it reads back into its value, order-sensitively, every
// superstep.
func aggProbe(steps int) Compute[int64, int64] {
	return func(ctx *Context[int64], id VertexID, v *int64, _ []int64) {
		s := ctx.Superstep()
		mn, ok := ctx.PrevAggMin("min")
		*v = *v*1000003 + ctx.PrevAggSum("sum")*31 + mn
		if ok {
			*v++
		}
		if ctx.PrevAggOr("or") {
			*v += 7
		}
		*v += ctx.PrevAggSum("rare") // contributed by one vertex only
		if s >= steps {
			ctx.VoteToHalt()
			return
		}
		if s != 2 { // superstep 2 is silent
			ctx.AggSum("sum", int64(id)*int64(s+1))
			ctx.AggMin("min", int64(id)%17-int64(s))
			ctx.AggOr("or", (int(id)+s)%5 == 0)
		}
		if id == 11 {
			ctx.AggSum("rare", int64(s)+100)
		}
	}
}

func runAggProbe(t *testing.T, cfg Config, n, steps int) map[VertexID]int64 {
	t.Helper()
	g := NewGraph[int64, int64](cfg)
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), int64(i))
	}
	if _, err := g.Run(aggProbe(steps), WithName("aggprobe")); err != nil {
		t.Fatal(err)
	}
	out := map[VertexID]int64{}
	g.ForEach(func(id VertexID, v *int64) { out[id] = *v })
	return out
}

// TestAggregatorsIdenticalAcrossSchedules: Sum/Min/Or results and PrevAgg*
// visibility do not depend on how vertices are spread over workers, on
// whether workers run on goroutines, or on a rollback to a checkpoint taken
// at any barrier (which must have captured the merged values). Under -race
// it is also the check that the lock-free accumulators are really private.
func TestAggregatorsIdenticalAcrossSchedules(t *testing.T) {
	const n, steps = 120, 6
	want := runAggProbe(t, Config{Workers: 1}, n, steps)
	for _, workers := range []int{1, 4, 7} {
		for _, parallel := range []bool{false, true} {
			for crashAt := -1; crashAt <= steps; crashAt++ {
				cfg := Config{Workers: workers, Parallel: parallel}
				if crashAt >= 0 {
					cfg.CheckpointEvery, cfg.Faults = 1, NewFaultPlan(Fault{Round: crashAt, Worker: crashAt})
				}
				if got := runAggProbe(t, cfg, n, steps); !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d parallel=%v crash@%d: values differ from the 1-worker sequential run",
						workers, parallel, crashAt)
				}
			}
		}
	}
}

// TestAggStateMergeAndSnapshot pins flip's merge at the unit level: values
// accumulated by different workers publish as one merged set, which is what
// a checkpoint carries; names contributed only with neutral values still
// publish (the old shared-map behaviour, and part of the checkpoint bytes);
// and the accumulators are empty afterwards.
func TestAggStateMergeAndSnapshot(t *testing.T) {
	a := newAggState(3)
	a.acc[0].addSum("s", 5)
	a.acc[2].addSum("s", -2)
	a.acc[1].addSum("zero", 0)
	a.acc[1].addMin("m", 9)
	a.acc[2].addMin("m", -4)
	a.acc[0].addOr("o", false)
	a.acc[2].addOr("o", true)
	a.acc[1].addOr("never", false)
	a.flip()
	want := aggSnapshot{
		Sum: map[string]int64{"s": 3, "zero": 0},
		Min: map[string]int64{"m": -4},
		Or:  map[string]bool{"o": true, "never": false},
	}
	if got := a.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot after flip = %+v, want %+v", got, want)
	}
	dec, rest, err := consumeAggSnapshot(appendAggSnapshot(nil, a.snapshot()))
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(dec, want) {
		t.Fatalf("checkpoint encoding decodes to %+v (rest %d, err %v), want %+v", dec, len(rest), err, want)
	}
	for i := range a.acc {
		if n := len(a.acc[i].sum) + len(a.acc[i].min) + len(a.acc[i].or); n != 0 {
			t.Errorf("worker %d accumulator holds %d entries after flip", i, n)
		}
	}
	a.flip() // a silent superstep publishes nothing
	if v, ok := a.prevMin("m"); ok || len(a.prev.sum)+len(a.prev.or) != 0 {
		t.Errorf("values survived a silent superstep: min=%d,%v sum=%v or=%v", v, ok, a.prev.sum, a.prev.or)
	}
	a.acc[1].addSum("s", 1)
	a.restore(want)
	if got := a.snapshot(); !reflect.DeepEqual(got, want) || len(a.acc[1].sum) != 0 {
		t.Errorf("restore left %+v with %d pending sums, want %+v and none", got, len(a.acc[1].sum), want)
	}
}

// TestAggregatorsResetBetweenRuns: a Run starts with nothing published and
// nothing pending, whatever the previous Run on the graph left behind —
// including contributions made in its final superstep.
func TestAggregatorsResetBetweenRuns(t *testing.T) {
	for _, workers := range []int{1, 4, 7} {
		g := NewGraph[int64, int64](Config{Workers: workers, Parallel: true})
		for i := 0; i < 50; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		first := func(ctx *Context[int64], id VertexID, _ *int64, _ []int64) {
			ctx.AggSum("a", 1)
			ctx.AggMin("a", int64(id))
			ctx.AggOr("a", true)
			ctx.VoteToHalt()
		}
		second := func(ctx *Context[int64], id VertexID, _ *int64, _ []int64) {
			mn, ok := ctx.PrevAggMin("a")
			switch ctx.Superstep() {
			case 0:
				if s := ctx.PrevAggSum("a"); s != 0 || ok || ctx.PrevAggOr("a") {
					t.Errorf("workers=%d: run 2 superstep 0 sees sum=%d min=%d,%v or=%v from run 1", workers, s, mn, ok, ctx.PrevAggOr("a"))
				}
				ctx.AggSum("a", 2)
			case 1:
				if s := ctx.PrevAggSum("a"); s != 100 || ok {
					t.Errorf("workers=%d: run 2 superstep 1 sees sum=%d (want 100) min=%d,%v (want none)", workers, s, mn, ok)
				}
				ctx.VoteToHalt()
			}
		}
		for i, c := range []Compute[int64, int64]{first, second} {
			if _, err := g.Run(c, WithName(fmt.Sprintf("reset%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
}
