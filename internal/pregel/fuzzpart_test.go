package pregel

import (
	"fmt"
	"testing"
)

// partFuzzGraph decodes fuzz bytes into a deterministic random workload:
// a vertex set, a fixed edge list per vertex, and a round budget. The
// compute function folds incoming payloads and the previous superstep's
// aggregator values into the vertex state (so aggregator equivalence is
// part of state equivalence) and fans out along the decoded edges.
type partFuzzGraph struct {
	n      int
	rounds int
	edges  [][]VertexID
}

func decodePartFuzz(data []byte) partFuzzGraph {
	g := partFuzzGraph{n: 16, rounds: 2}
	if len(data) > 0 {
		g.n = 16 + int(data[0]%64)
	}
	if len(data) > 1 {
		g.rounds = 2 + int(data[1]%4)
	}
	g.edges = make([][]VertexID, g.n)
	for i := 2; i+1 < len(data); i += 2 {
		src := int(data[i]) % g.n
		dst := VertexID(int(data[i+1]) % g.n)
		g.edges[src] = append(g.edges[src], dst)
	}
	// Give otherwise-isolated vertices one ring edge so the runs always
	// have message traffic to disagree about.
	for i := range g.edges {
		g.edges[i] = append(g.edges[i], VertexID((i+1)%g.n))
	}
	return g
}

func (fg partFuzzGraph) compute(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
	for _, m := range msgs {
		*val += m
	}
	*val += ctx.PrevAggSum("sum")
	if min, ok := ctx.PrevAggMin("min"); ok {
		*val ^= min
	}
	if ctx.PrevAggOr("or") {
		*val++
	}
	ctx.AggSum("sum", *val%7)
	ctx.AggMin("min", int64(id)%13)
	ctx.AggOr("or", *val%5 == 0)
	if ctx.Superstep() >= fg.rounds {
		ctx.VoteToHalt()
		return
	}
	for j, dst := range fg.edges[id] {
		ctx.Send(dst, *val+int64(j))
	}
}

// runPartFuzz executes the decoded workload under one placement and returns
// the final vertex states plus run stats.
func runPartFuzz(t *testing.T, fg partFuzzGraph, part Partitioner, workers int, parallel bool) ([]int64, *Stats) {
	t.Helper()
	g := NewGraph[int64, int64](Config{Workers: workers, Parallel: parallel, Partitioner: part})
	for i := 0; i < fg.n; i++ {
		g.AddVertex(VertexID(i), int64(i))
	}
	st, err := g.Run(fg.compute, WithName("partfuzz"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, fg.n)
	g.ForEach(func(id VertexID, v *int64) { out[id] = *v })
	return out, st
}

// fuzzPartitioners builds the three placement strategies under test: the
// hash default, a range partitioner covering the fuzz ID space, and a
// map partitioner whose overrides are derived from the seed — an arbitrary
// learned placement.
func fuzzPartitioners(fg partFuzzGraph, seed uint64, workers int) []Partitioner {
	table := mapPartitioner{}
	z := seed
	for i := 0; i < fg.n; i++ {
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		if x&1 == 0 { // cover only part of the ID set
			table[VertexID(i)] = int((x >> 1) % uint64(workers))
		}
	}
	return []Partitioner{
		HashPartitioner{},
		RangePartitioner{Bits: 7}, // 2^7 = 128 >= max n; larger IDs fall back
		table,
	}
}

// checkPartFuzz asserts the partition-equivalence contract for one decoded
// workload: identical vertex states (including the folded-in aggregator
// history), message totals and superstep counts across all three
// partitioners, workers in {1, 4, 7}, Parallel on and off — and a
// consistent local/remote split everywhere.
func checkPartFuzz(t *testing.T, data []byte, seed uint64) {
	t.Helper()
	fg := decodePartFuzz(data)
	baseVals, baseStats := runPartFuzz(t, fg, HashPartitioner{}, 1, false)
	for _, workers := range []int{1, 4, 7} {
		for _, part := range fuzzPartitioners(fg, seed, workers) {
			for _, parallel := range []bool{false, true} {
				label := fmt.Sprintf("part=%s workers=%d parallel=%v", part.Name(), workers, parallel)
				vals, st := runPartFuzz(t, fg, part, workers, parallel)
				for id := range baseVals {
					if vals[id] != baseVals[id] {
						t.Fatalf("%s: vertex %d state %d != baseline %d", label, id, vals[id], baseVals[id])
					}
				}
				if st.Messages != baseStats.Messages || st.Supersteps != baseStats.Supersteps {
					t.Fatalf("%s: stats (msgs=%d steps=%d) != baseline (msgs=%d steps=%d)",
						label, st.Messages, st.Supersteps, baseStats.Messages, baseStats.Supersteps)
				}
				if st.LocalMessages+st.RemoteMessages != st.Messages {
					t.Fatalf("%s: local %d + remote %d != total %d",
						label, st.LocalMessages, st.RemoteMessages, st.Messages)
				}
				if workers == 1 && st.RemoteMessages != 0 {
					t.Fatalf("%s: single worker counted %d remote messages", label, st.RemoteMessages)
				}
			}
		}
	}
}

// FuzzPartitionEquivalence is the placement-independence contract of the
// engine: for arbitrary graphs and a state-folding compute function, vertex
// states, aggregator history, message totals and superstep counts must not
// depend on which partitioner places the vertices, how many workers there
// are, or whether workers run in parallel. Only the local/remote traffic
// split may move.
func FuzzPartitionEquivalence(f *testing.F) {
	f.Add([]byte{5, 1, 0, 1, 1, 2, 2, 3}, uint64(1))
	f.Add([]byte{40, 3, 9, 9, 10, 11, 30, 2, 7, 7}, uint64(99))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) > 256 {
			data = data[:256] // bound the workload, not the coverage
		}
		checkPartFuzz(t, data, seed)
	})
}

// TestPartitionEquivalenceSeeds runs the fuzz corpus seeds as a plain test
// so `go test` (without -fuzz) still covers the equivalence contract; CI's
// race job runs it with all three placements under the race detector.
func TestPartitionEquivalenceSeeds(t *testing.T) {
	seeds := []struct {
		data []byte
		seed uint64
	}{
		{[]byte{5, 1, 0, 1, 1, 2, 2, 3}, 1},
		{[]byte{40, 3, 9, 9, 10, 11, 30, 2, 7, 7}, 99},
		{[]byte{}, 0},
		{[]byte{63, 2, 0, 63, 63, 0, 31, 31, 5, 5, 1, 0}, 12345},
	}
	for _, s := range seeds {
		checkPartFuzz(t, s.data, s.seed)
	}
}
