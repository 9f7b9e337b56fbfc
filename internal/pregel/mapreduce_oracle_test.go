package pregel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mrRecord is one input item of the oracle test: a key and a value, emitted
// as-is by the map UDF.
type mrRecord[K any] struct {
	key K
	val float64
}

// mrGroup is what one reduce call saw: its key, its values in the order
// they arrived, and their left-to-right float sum (which differs between
// value orders, so it catches a reordering the slices might hide).
type mrGroup[K any] struct {
	key  K
	vals []float64
	sum  float64
}

func sumInOrder(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// referenceGroups is the specification MapReduceCfg must match: per reducer,
// concatenate the lanes in source-worker order, stable-sort by key, cut into
// groups. sort.SliceStable lives on here, in the test only.
func referenceGroups[K any](input [][]mrRecord[K], workers int, route func(K) int, less func(a, b K) bool) [][]mrGroup[K] {
	out := make([][]mrGroup[K], workers)
	for d := 0; d < workers; d++ {
		var lane []mrRecord[K]
		for _, shard := range input {
			for _, r := range shard {
				if route(r.key) == d {
					lane = append(lane, r)
				}
			}
		}
		sort.SliceStable(lane, func(a, b int) bool { return less(lane[a].key, lane[b].key) })
		for i := 0; i < len(lane); {
			g := mrGroup[K]{key: lane[i].key}
			for ; i < len(lane) && !less(g.key, lane[i].key); i++ {
				g.vals = append(g.vals, lane[i].val)
			}
			g.sum = sumInOrder(g.vals)
			out[d] = append(out[d], g)
		}
	}
	return out
}

// checkAgainstReference runs MapReduceCfg over random heavily-duplicated
// input for every worker count × Parallel × Partitioner combination and
// requires keys, per-key value order and per-reducer output order to equal
// the reference exactly.
func checkAgainstReference[K any](t *testing.T, name string, genKey func(*rand.Rand) K, hash func(K) uint64, less func(a, b K) bool) {
	for _, workers := range []int{1, 4, 7} {
		for _, parallel := range []bool{false, true} {
			for _, part := range []Partitioner{nil, HashPartitioner{}, RangePartitioner{Bits: 16}} {
				rng := rand.New(rand.NewSource(int64(workers)*31 + 7))
				input := make([][]mrRecord[K], workers)
				for w := range input {
					for i := 0; i < 400+rng.Intn(400); i++ {
						// Values spanning 16 orders of magnitude make the
						// float sum depend on the order of its terms.
						val := rng.Float64() * float64(uint64(1)<<uint(rng.Intn(53)))
						input[w] = append(input[w], mrRecord[K]{genKey(rng), val})
					}
				}
				route := func(k K) int { return int(hash(k) % uint64(workers)) }
				if part != nil {
					route = func(k K) int { return part.Assign(VertexID(hash(k)), workers) }
				}
				want := referenceGroups(input, workers, route, less)

				got, _ := MapReduceCfg(NewSimClock(DefaultCost()),
					MRConfig{Workers: workers, Parallel: parallel, Partitioner: part},
					input,
					func(w int, r mrRecord[K], emit func(K, float64)) { emit(r.key, r.val) },
					hash, less,
					func(w int, key K, vals []float64, emit func(mrGroup[K])) {
						emit(mrGroup[K]{key, append([]float64(nil), vals...), sumInOrder(vals)})
					})
				label := fmt.Sprintf("%s workers=%d parallel=%v partitioner=%v", name, workers, parallel, part)
				for d := 0; d < workers; d++ {
					if len(got[d]) != len(want[d]) {
						t.Fatalf("%s: reducer %d saw %d groups, reference %d", label, d, len(got[d]), len(want[d]))
					}
					for i := range want[d] {
						if !reflect.DeepEqual(got[d][i], want[d][i]) {
							t.Fatalf("%s: reducer %d group %d differs\n got %+v\nwant %+v", label, d, i, got[d][i], want[d][i])
						}
					}
				}
			}
		}
	}
}

// TestMapReduceMatchesStableReference is the stability oracle of the
// reduce-side grouping: the permutation sort must be indistinguishable from
// a stable sort of the concatenated lanes.
func TestMapReduceMatchesStableReference(t *testing.T) {
	checkAgainstReference(t, "uint64",
		func(r *rand.Rand) uint64 { return uint64(r.Intn(37)) },
		Uint64Hash, lessU64)

	// The shape of scaffold's endPair key: two fields, compared
	// lexicographically, routed by a mix of both.
	type pairKey struct{ a, b uint64 }
	checkAgainstReference(t, "struct",
		func(r *rand.Rand) pairKey { return pairKey{uint64(r.Intn(6)), uint64(r.Intn(5))} },
		func(k pairKey) uint64 { return Uint64Hash(k.a*1_000_003 + k.b) },
		func(x, y pairKey) bool {
			if x.a != y.a {
				return x.a < y.a
			}
			return x.b < y.b
		})
}
