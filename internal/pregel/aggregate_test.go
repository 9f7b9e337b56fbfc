package pregel

import (
	"fmt"
	"reflect"
	"testing"
)

// aggProbe is a job built to expose aggregator mistakes: contributions
// depend on the vertex (so per-worker accumulators differ), in superstep 2
// only vertex 11 contributes (one worker's sum, and an OR nobody set), in
// superstep 4 nobody does (PrevAggSum must then read zero, PrevAggOr
// false), and every vertex folds what it reads back into its value,
// order-sensitively, every superstep.
func aggProbe(steps int) Compute[int64, int64] {
	return func(ctx *Context[int64], id VertexID, v *int64, _ []int64) {
		s := ctx.Superstep()
		*v = *v*1000003 + ctx.PrevAggSum()*31
		if ctx.PrevAggOr() {
			*v += 7
		}
		if s >= steps {
			ctx.VoteToHalt()
			return
		}
		if s != 2 && s != 4 {
			ctx.AggSum(int64(id) * int64(s+1))
			ctx.AggOr((int(id)+s)%5 == 0)
		}
		if id == 11 && s != 4 {
			ctx.AggSum(int64(s) + 100)
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

// TestAggregatorsIdenticalAcrossSchedules: Sum/Or results and PrevAgg*
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

// TestAggStateMergeAndSnapshot pins flipAgg's merge at the unit level: the
// contributions of different workers, neutral ones included, publish as one
// pair; a checkpoint carries that pair and a restore brings it back; and a
// superstep in which no worker contributes publishes zero and false.
func TestAggStateMergeAndSnapshot(t *testing.T) {
	g := NewGraph[int64, int64](Config{Workers: 3, CheckpointEvery: 1})
	for i := 0; i < 9; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	g.sortVertices()
	g.workers[0].ctx.agg = aggVals{Sum: 5}
	g.workers[1].ctx.agg = aggVals{Sum: 0, Or: false}
	g.workers[2].ctx.agg = aggVals{Sum: -2, Or: true}
	g.flipAgg()
	want := aggVals{Sum: 3, Or: true}
	if g.agg != want {
		t.Fatalf("published after flip = %+v, want %+v", g.agg, want)
	}
	ck, err := g.newCkptRun("aggstate")
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	if err := g.saveCheckpoint(ck, 1, 0, stats); err != nil {
		t.Fatal(err)
	}
	for _, w := range g.workers {
		w.ctx.agg = aggVals{}
	}
	g.flipAgg() // a silent superstep publishes nothing
	if g.agg != (aggVals{}) {
		t.Errorf("values survived a silent superstep: %+v", g.agg)
	}
	file, ok, err := ck.loadCheckpoint()
	if err != nil || !ok {
		t.Fatalf("loadCheckpoint: ok=%v err=%v", ok, err)
	}
	if file.Agg != want {
		t.Errorf("checkpoint carries %+v, want %+v", file.Agg, want)
	}
	if _, _, err := g.restoreCheckpoint(file, stats); err != nil {
		t.Fatal(err)
	}
	if g.agg != want {
		t.Errorf("restore published %+v, want %+v", g.agg, want)
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
		first := func(ctx *Context[int64], _ VertexID, _ *int64, _ []int64) {
			ctx.AggSum(1)
			ctx.AggOr(true)
			ctx.VoteToHalt()
		}
		second := func(ctx *Context[int64], _ VertexID, _ *int64, _ []int64) {
			switch ctx.Superstep() {
			case 0:
				if s := ctx.PrevAggSum(); s != 0 || ctx.PrevAggOr() {
					t.Errorf("workers=%d: run 2 superstep 0 sees sum=%d or=%v from run 1", workers, s, ctx.PrevAggOr())
				}
				ctx.AggSum(2)
			case 1:
				if s := ctx.PrevAggSum(); s != 100 || ctx.PrevAggOr() {
					t.Errorf("workers=%d: run 2 superstep 1 sees sum=%d (want 100) or=%v (want false)", workers, s, ctx.PrevAggOr())
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
