package pregel

import (
	"fmt"
	"reflect"
	"testing"
)

// aggProbe is a job built to expose aggregator mistakes: contributions
// depend on the vertex (so per-worker accumulators differ and some workers
// contribute nothing to a name), one superstep contributes nothing at all
// (PrevAggSum must then read zero, PrevAggOr false), and every vertex
// folds what it reads back into its value, order-sensitively, every
// superstep.
func aggProbe(steps int) Compute[int64, int64] {
	return func(ctx *Context[int64], id VertexID, v *int64, _ []int64) {
		s := ctx.Superstep()
		*v = *v*1000003 + ctx.PrevAggSum("sum")*31
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
	a.acc[0].addOr("o", false)
	a.acc[2].addOr("o", true)
	a.acc[1].addOr("never", false)
	a.flip()
	want := aggSnapshot{
		Sum: map[string]int64{"s": 3, "zero": 0},
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
		if n := len(a.acc[i].sum) + len(a.acc[i].or); n != 0 {
			t.Errorf("worker %d accumulator holds %d entries after flip", i, n)
		}
	}
	a.flip() // a silent superstep publishes nothing
	if len(a.prev.sum)+len(a.prev.or) != 0 {
		t.Errorf("values survived a silent superstep: sum=%v or=%v", a.prev.sum, a.prev.or)
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
		first := func(ctx *Context[int64], _ VertexID, _ *int64, _ []int64) {
			ctx.AggSum("a", 1)
			ctx.AggOr("a", true)
			ctx.VoteToHalt()
		}
		second := func(ctx *Context[int64], _ VertexID, _ *int64, _ []int64) {
			switch ctx.Superstep() {
			case 0:
				if s := ctx.PrevAggSum("a"); s != 0 || ctx.PrevAggOr("a") {
					t.Errorf("workers=%d: run 2 superstep 0 sees sum=%d or=%v from run 1", workers, s, ctx.PrevAggOr("a"))
				}
				ctx.AggSum("a", 2)
			case 1:
				if s := ctx.PrevAggSum("a"); s != 100 || ctx.PrevAggOr("a") {
					t.Errorf("workers=%d: run 2 superstep 1 sees sum=%d (want 100) or=%v (want false)", workers, s, ctx.PrevAggOr("a"))
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

// slotProbe is a job whose vertices switch aggregator names mid-compute, the
// pattern a Context that remembered a worker-accumulator slot across a
// resolve of another name would get wrong: each vertex contributes to and
// reads "" (the empty name, which a fresh memo names), makes a contribution
// to "b" (on a worker's first vertex of a superstep, the first of that
// superstep, which appends to the accumulator and may move it), then uses ""
// again, and likewise for the ORs "" and "y". "c" joins at superstep 2 and
// "y" at 1, so accumulators that earlier supersteps sized for fewer names
// grow then, and only some vertices touch "c", so on some workers its first
// contribution comes mid-superstep. The sum accessors' last name in a vertex
// is their first in the next, so a memo kept past the barrier would be used
// stale. Every read is folded into the value order-sensitively.
func slotProbe(steps int) refProgram {
	return func(ctx progCtx, id VertexID, v *int64, _ []int64) {
		s := ctx.Superstep()
		fold := func(x int64) { *v = *v*1000003 + x }
		ctx.AggSum("", int64(id)+1)
		fold(ctx.PrevAggSum(""))
		ctx.AggOr("", (int(id)+s)%3 == 0)
		ctx.AggSum("b", int64(s)*7+int64(id)%5)
		if s >= 1 {
			ctx.AggOr("y", (int(id)*s)%4 == 1)
		}
		ctx.AggSum("", int64(id)*int64(s+2))
		ctx.AggOr("", id%7 == 3)
		fold(ctx.PrevAggSum("b"))
		if s >= 2 && id%3 != 0 {
			ctx.AggSum("c", int64(id)^int64(s))
			ctx.AggSum("", 3)
		}
		fold(2*ctx.PrevAggSum("c") + ctx.PrevAggSum(""))
		if ctx.PrevAggOr("") {
			fold(5)
		}
		if ctx.PrevAggOr("y") {
			fold(11)
		}
		ctx.AggSum("b", -1)
		ctx.AggSum("", 1)
		if s >= steps || (s >= 3 && id%5 == 0) {
			ctx.VoteToHalt()
		}
	}
}

// TestAggregatorSlotsSurviveNewNames: contributions made around the first
// contribution of a superstep to another name are all counted, under every
// schedule, worker count and crash-and-replay, as the 1-worker sequential
// run and the reference interpreter count them.
func TestAggregatorSlotsSurviveNewNames(t *testing.T) {
	const n, steps = 90, 6
	prog := slotProbe(steps)
	run := func(cfg Config) (map[VertexID]int64, int) {
		t.Helper()
		g := NewGraph[int64, int64](cfg)
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), int64(i))
		}
		compute := func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) { prog(ctx, id, v, msgs) }
		st, err := g.Run(compute, WithName("slotprobe"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[VertexID]int64{}
		g.ForEach(func(id VertexID, v *int64) { out[id] = *v })
		return out, st.Recoveries
	}
	want, _ := run(Config{Workers: 1})
	ref := &refGraph{verts: map[VertexID]*refVertex{}, workerOf: func(VertexID) int { return 0 }}
	for i := 0; i < n; i++ {
		ref.verts[VertexID(i)] = &refVertex{val: int64(i)}
	}
	ref.run(prog)
	for id, v := range ref.verts {
		if want[id] != v.val {
			t.Fatalf("1-worker sequential run: vertex %d = %d, reference %d", id, want[id], v.val)
		}
	}
	for _, workers := range []int{1, 4, 7} {
		for _, parallel := range []bool{false, true} {
			for crashAt := -1; crashAt <= steps; crashAt++ {
				cfg, crashes := Config{Workers: workers, Parallel: parallel}, 0
				if crashAt >= 0 {
					cfg.CheckpointEvery, cfg.Faults, crashes = 1, NewFaultPlan(Fault{Round: crashAt, Worker: crashAt}), 1
				}
				got, recoveries := run(cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d parallel=%v crash@%d: values differ from the 1-worker sequential run",
						workers, parallel, crashAt)
				}
				if recoveries != crashes {
					t.Errorf("workers=%d parallel=%v crash@%d: %d recoveries, want %d", workers, parallel, crashAt, recoveries, crashes)
				}
			}
		}
	}
}
