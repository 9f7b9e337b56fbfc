package pregel

import (
	"math/rand"
	"testing"
)

// TestBulkLoadAllocFence locks the count-first graph load: converting n
// already-sorted vertices, and re-running a job on an unchanged graph, must
// allocate a number of objects that depends on the worker count only — one
// sized allocation per per-vertex array — not one object per vertex and not
// a doubling's worth of regrowths as n grows. (n stays under the size where
// the runtime splits a pre-sized map into several tables, which is the one
// n-dependent allocation a sized load cannot avoid.)
func TestBulkLoadAllocFence(t *testing.T) {
	const workers = 4
	convertAllocs := func(n int) float64 {
		src := sortedGraph(n)
		return testing.AllocsPerRun(10, func() {
			dst := convertSorted(src, false)
			dst.sortVertices() // the first Run's prologue: nothing to sort
		})
	}
	small, large := convertAllocs(500), convertAllocs(2000)
	if small > 32*workers || large > small+workers {
		t.Errorf("Convert allocates %.0f objects for 500 vertices and %.0f for 2000; want O(workers), independent of n", small, large)
	}

	halt := func(ctx *Context[struct{}], id VertexID, val *uint32, msgs []struct{}) { ctx.VoteToHalt() }
	rerunAllocs := func(n int) float64 {
		g := sortedGraph(n)
		if _, err := g.Run(halt); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := g.Run(halt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large = rerunAllocs(500), rerunAllocs(50_000)
	if small > 32*workers || large > small {
		t.Errorf("a second Run on an unchanged graph allocates %.0f objects for 500 vertices and %.0f for 50000; want O(workers), independent of n", small, large)
	}
}

// TestVertexSetMatchesModel drives random AddVertex / RemoveVertex /
// LoadShards / Run sequences against a plain map: after every Run each
// worker must hold exactly the model's vertices in strictly ascending ID
// order, and the index must resolve every ID to its current value — the
// contract of sortVertices' skip, compact-only and permutation paths alike.
func TestVertexSetMatchesModel(t *testing.T) {
	halt := func(ctx *Context[struct{}], id VertexID, val *int, msgs []struct{}) {
		if *val%7 == 0 {
			ctx.RemoveSelf() // in-run removal: the next Run must compact
			return
		}
		ctx.VoteToHalt()
	}
	type rec struct {
		id  VertexID
		val int
	}
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		workers := 1 + trial%4
		g := NewGraph[int, struct{}](Config{Workers: workers})
		model := map[VertexID]int{}
		for round := 0; round < 6; round++ {
			for op := 0; op < 80; op++ {
				id, val := VertexID(rng.Intn(150)), 1+rng.Intn(1000)
				switch rng.Intn(4) {
				case 0:
					g.RemoveVertex(id)
					delete(model, id)
				case 1: // a bulk load with duplicates, possibly of live IDs
					shards := make([][]rec, workers)
					for i := 0; i < 10; i++ {
						r := rec{VertexID(rng.Intn(150)), 1 + rng.Intn(1000)}
						w := rng.Intn(workers)
						shards[w] = append(shards[w], r)
					}
					for _, sh := range shards { // model: shard order, later wins
						for _, r := range sh {
							model[r.id] = r.val
						}
					}
					LoadShards(g, shards, func(r *rec) (VertexID, int) { return r.id, r.val })
				default:
					g.AddVertex(id, val)
					model[id] = val
				}
			}
			if _, err := g.Run(halt); err != nil {
				t.Fatal(err)
			}
			for id, val := range model {
				if val%7 == 0 {
					delete(model, id)
				}
			}
			seen, last, lastW := 0, VertexID(0), -1
			g.ForEachWorker(func(w int, id VertexID, val *int) {
				if w == lastW && id <= last {
					t.Fatalf("trial %d: worker %d not strictly ascending at %d", trial, w, id)
				}
				if want, ok := model[id]; !ok || want != *val || g.WorkerOf(id) != w {
					t.Fatalf("trial %d: vertex %d = %d on worker %d, model has %d (present %v)", trial, id, *val, w, want, ok)
				}
				seen, last, lastW = seen+1, id, w
			})
			if seen != len(model) || g.VertexCount() != len(model) {
				t.Fatalf("trial %d: graph holds %d vertices (VertexCount %d), model %d", trial, seen, g.VertexCount(), len(model))
			}
			for id := VertexID(0); id < 150; id++ {
				got, ok := g.Value(id)
				if want, in := model[id]; ok != in || got != want {
					t.Fatalf("trial %d: Value(%d) = %d,%v; model %d,%v", trial, id, got, ok, want, in)
				}
			}
		}
	}
}
