package pregel

import (
	"fmt"
	"reflect"
	"testing"
)

// prVal is the PageRank-style vertex value: an integer rank (fixed-point,
// so parallel-mode results are exact) plus the final aggregator reading.
type prVal struct {
	Rank  int64
	Total int64
}

func (v *prVal) AppendCheckpoint(buf []byte) []byte {
	return AppendVarint(AppendVarint(buf, v.Rank), v.Total)
}

func (v *prVal) DecodeCheckpoint(data []byte) (rest []byte, err error) {
	if v.Rank, data, err = ConsumeVarint(data); err != nil {
		return nil, err
	}
	v.Total, rest, err = ConsumeVarint(data)
	return rest, err
}

// pageRankish is a PageRank-style ranking job on a ring with skip edges:
// for `iters` iterations every vertex scatters its rank over its three out-
// edges and gathers incoming shares with a damping residue, all in integer
// arithmetic. A sum aggregator tracks total rank; the final superstep
// stores the previous aggregate into the value so the test can assert
// aggregator state survives recovery bit-exactly.
func pageRankish(n, iters int) Compute[prVal, int64] {
	return func(ctx *Context[int64], id VertexID, v *prVal, msgs []int64) {
		if ctx.Superstep() > 0 {
			sum := int64(0)
			for _, m := range msgs {
				sum += m
			}
			v.Rank = 150 + (sum*85)/100
		}
		v.Total = ctx.PrevAggSum()
		if ctx.Superstep() >= iters {
			ctx.VoteToHalt()
			return
		}
		ctx.AggSum(v.Rank)
		share := v.Rank / 3
		u := uint64(id)
		ctx.Send(VertexID((u+1)%uint64(n)), share)
		ctx.Send(VertexID((u+7)%uint64(n)), share)
		ctx.Send(VertexID((u+13)%uint64(n)), share)
	}
}

func buildPRGraph(cfg Config, n int) *Graph[prVal, int64] {
	g := NewGraph[prVal, int64](cfg)
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), prVal{Rank: 1000 + int64(i)})
	}
	return g
}

func collectPR(g *Graph[prVal, int64]) map[VertexID]prVal {
	out := map[VertexID]prVal{}
	g.ForEach(func(id VertexID, v *prVal) { out[id] = *v })
	return out
}

// TestCrashMatrixPageRank is the exhaustive engine-level crash matrix: a
// PageRank-style job is crashed at every BSP round × worker count {1,4,7} ×
// Parallel {off,on}, and every recovered run must match the unfailed run's
// vertex values, aggregator readings and run counters exactly.
func TestCrashMatrixPageRank(t *testing.T) {
	const n, iters = 96, 11
	for _, workers := range []int{1, 4, 7} {
		for _, parallel := range []bool{false, true} {
			name := fmt.Sprintf("w%d-par%v", workers, parallel)
			t.Run(name, func(t *testing.T) {
				// Baseline with a round-counting (empty) plan: its Rounds()
				// after the run enumerates every possible failure point.
				probe := NewFaultPlan()
				base := buildPRGraph(Config{Workers: workers, Parallel: parallel, Faults: probe}, n)
				baseStats, err := base.Run(pageRankish(n, iters), WithName("pagerankish"))
				if err != nil {
					t.Fatal(err)
				}
				want := collectPR(base)
				rounds := probe.Rounds()
				if rounds != baseStats.Supersteps {
					t.Fatalf("probe saw %d rounds, stats %d supersteps", rounds, baseStats.Supersteps)
				}

				for failAt := 0; failAt < rounds; failAt++ {
					plan := NewFaultPlan(Fault{Round: failAt, Worker: failAt})
					g := buildPRGraph(Config{
						Workers:         workers,
						Parallel:        parallel,
						CheckpointEvery: 3,
						Faults:          plan,
					}, n)
					stats, err := g.Run(pageRankish(n, iters), WithName("pagerankish"))
					if err != nil {
						t.Fatalf("fail@%d: %v", failAt, err)
					}
					if stats.Recoveries != 1 {
						t.Fatalf("fail@%d: %d recoveries, want 1", failAt, stats.Recoveries)
					}
					if got := collectPR(g); !reflect.DeepEqual(got, want) {
						t.Errorf("fail@%d: recovered values/aggregates differ from unfailed run", failAt)
					}
					sameRunStats(t, fmt.Sprintf("fail@%d", failAt), baseStats, stats)
				}
			})
		}
	}
}

// TestCheckpointStressParallelShuffle hammers checkpointing under the
// parallel shuffle for the race detector: every-superstep checkpoints,
// repeated crashes, and concurrent per-worker
// encode/decode during save and restore.
func TestCheckpointStressParallelShuffle(t *testing.T) {
	const n, iters = 200, 12
	base := buildPRGraph(Config{Workers: 8, Parallel: true}, n)
	if _, err := base.Run(pageRankish(n, iters), WithName("stress")); err != nil {
		t.Fatal(err)
	}
	want := collectPR(base)

	g := buildPRGraph(Config{
		Workers:         8,
		Parallel:        true,
		CheckpointEvery: 1,
		Faults: NewFaultPlan(
			Fault{Round: 2, Worker: 5},
			Fault{Round: 5, Worker: 1},
			Fault{Round: 6, Worker: 7},
			Fault{Round: 9, Worker: 3},
		),
	}, n)
	stats, err := g.Run(pageRankish(n, iters), WithName("stress"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 4 {
		t.Fatalf("expected 4 recoveries, got %d", stats.Recoveries)
	}
	if !reflect.DeepEqual(collectPR(g), want) {
		t.Error("stressed parallel run diverged from unfailed run")
	}
}
