package pregel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ppaassembler/internal/telemetry"
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

// laneOrder is the order in which checkAgainstReference's mappers emit.
type laneOrder int

const (
	// randomLanes: keys in random order.
	randomLanes laneOrder = iota
	// ascendingLanes: every mapper emits ascending keys, so every lane
	// arrives sorted and every uint64-keyed reducer merges.
	ascendingLanes
	// oneLaneUnsorted: ascending, but for two records of worker 0 that go
	// to the same reducer, swapped; that reducer takes the radix path.
	oneLaneUnsorted
)

// checkAgainstReference runs MapReduceCfg over random heavily-duplicated
// input for every worker count × Parallel × Partitioner combination and
// requires keys, per-key value order and per-reducer output order to equal
// the reference exactly. For the sorted lane orders it also requires the
// reducers that merged (mr_reducers_merged_total) to be all of them, or all
// but the one with the unsorted lane.
func checkAgainstReference[K any](t *testing.T, name string, order laneOrder, genKey func(*rand.Rand) K, hash func(K) uint64, less func(a, b K) bool) {
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
				if order != randomLanes {
					for _, shard := range input {
						sort.SliceStable(shard, func(a, b int) bool { return less(shard[a].key, shard[b].key) })
					}
				}
				if order == oneLaneUnsorted {
					unsortOneLane(t, input[0], route, less)
				}
				want := referenceGroups(input, workers, route, less)

				reg := telemetry.NewRegistry()
				got, _ := MapReduceCfg(NewSimClock(DefaultCost()),
					MRConfig{Workers: workers, Parallel: parallel, Partitioner: part, Metrics: reg},
					input,
					func(w int, r mrRecord[K], emit func(K, float64)) { emit(r.key, r.val) },
					hash, less,
					func(w int, key K, vals []float64, emit func(mrGroup[K])) {
						emit(mrGroup[K]{key, append([]float64(nil), vals...), sumInOrder(vals)})
					})
				label := fmt.Sprintf("%s workers=%d parallel=%v partitioner=%v", name, workers, parallel, part)
				merged := reg.Counter("mr_reducers_merged_total").Value()
				if wantMerged := map[laneOrder]int64{ascendingLanes: int64(workers), oneLaneUnsorted: int64(workers - 1)}; order != randomLanes && merged != wantMerged[order] {
					t.Errorf("%s: %d reducers merged, want %d", label, merged, wantMerged[order])
				}
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

// unsortOneLane swaps the first two records of an ascending shard that go
// to the same reducer and differ in key, so exactly one lane arrives
// unsorted.
func unsortOneLane[K any](t *testing.T, shard []mrRecord[K], route func(K) int, less func(a, b K) bool) {
	t.Helper()
	for j := range shard {
		for i := 0; i < j; i++ {
			if route(shard[i].key) == route(shard[j].key) && less(shard[i].key, shard[j].key) {
				shard[i], shard[j] = shard[j], shard[i]
				return
			}
		}
	}
	t.Fatal("no two distinct keys of the shard share a reducer")
}

// TestMapReduceMatchesStableReference is the stability oracle of the
// reduce-side grouping: the lane merge and the permutation sorts — radix for
// uint64 keys, comparison for the struct key — must be indistinguishable
// from a stable sort of the concatenated lanes.
func TestMapReduceMatchesStableReference(t *testing.T) {
	// uint64 keys take the radix kernel: a pool of full-width values (and
	// both ends of the range) makes every one of its eight digits matter.
	// The same keys in ascending lanes take the merge, where the pool's
	// duplicates across source workers check the tie order; with one lane
	// unsorted, that lane's reducer falls back to the radix kernel.
	pool := []uint64{0, math.MaxUint64}
	for r := rand.New(rand.NewSource(20)); len(pool) < 42; {
		pool = append(pool, r.Uint64())
	}
	for _, c := range []struct {
		name  string
		order laneOrder
	}{{"uint64", randomLanes}, {"uint64 ascending lanes", ascendingLanes}, {"uint64 one lane unsorted", oneLaneUnsorted}} {
		checkAgainstReference(t, c.name, c.order,
			func(r *rand.Rand) uint64 { return pool[r.Intn(len(pool))] },
			Uint64Hash, lessU64)
	}

	// The shape of scaffold's endPair key: two fields, compared
	// lexicographically, routed by a mix of both.
	type pairKey struct{ a, b uint64 }
	checkAgainstReference(t, "struct", randomLanes,
		func(r *rand.Rand) pairKey { return pairKey{uint64(r.Intn(6)), uint64(r.Intn(5))} },
		func(k pairKey) uint64 { return Uint64Hash(k.a*1_000_003 + k.b) },
		func(x, y pairKey) bool {
			if x.a != y.a {
				return x.a < y.a
			}
			return x.b < y.b
		})
}

// groupKeys runs one single-reducer MapReduce that emits every item as its
// own key and returns the keys in the order the reducer saw them.
func groupKeys[K any](name string, items []K, less func(a, b K) bool) []K {
	out, _ := MapReduceCfg(NewSimClock(DefaultCost()), MRConfig{Workers: 1, Name: name},
		[][]K{items},
		func(w int, k K, emit func(K, struct{})) { emit(k, struct{}{}) },
		func(K) uint64 { return 0 }, less,
		func(w int, key K, _ []struct{}, emit func(K)) { emit(key) })
	return out[0]
}

// TestMapReduceKeyLessMustAgreeWithRadixOrder: the radix path groups uint64
// keys in ascending order whatever keyLess says, so a keyLess that is not
// ascending < must fail loudly, naming the job, instead of being silently
// ignored. Key types on the comparison path may order however they like.
func TestMapReduceKeyLessMustAgreeWithRadixOrder(t *testing.T) {
	if got := groupKeys("asc", []uint64{5, 1 << 40, 5, 0}, lessU64); !reflect.DeepEqual(got, []uint64{0, 5, 1 << 40}) {
		t.Fatalf("ascending uint64 job grouped as %v", got)
	}
	func() {
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, `"scaffold.descending"`) || !strings.Contains(msg, "keyLess") {
				t.Fatalf("descending keyLess on uint64 keys: want a panic naming the job and keyLess, got %v", r)
			}
		}()
		groupKeys("scaffold.descending", []uint64{5, 1 << 40, 5, 0}, func(a, b uint64) bool { return a > b })
	}()
	// A single distinct key has no boundary to check and must not panic.
	if got := groupKeys("one", []uint64{7, 7, 7}, func(a, b uint64) bool { return a > b }); !reflect.DeepEqual(got, []uint64{7}) {
		t.Fatalf("single-key job grouped as %v", got)
	}

	type named uint64 // same representation, but not uint64: comparison path
	if got := groupKeys("named", []named{1, 3, 2, 3}, func(a, b named) bool { return a > b }); !reflect.DeepEqual(got, []named{3, 2, 1}) {
		t.Fatalf("descending named-uint64 job grouped as %v", got)
	}
	type pairKey struct{ a, b uint64 }
	desc := func(x, y pairKey) bool { return x.a > y.a || x.a == y.a && x.b > y.b }
	got := groupKeys("struct", []pairKey{{1, 2}, {2, 1}, {1, 3}, {2, 1}}, desc)
	if !reflect.DeepEqual(got, []pairKey{{2, 1}, {1, 3}, {1, 2}}) {
		t.Fatalf("descending struct-key job grouped as %v", got)
	}
}

// TestReducerArrivalIndexBound: the permutation is int32, so a reducer handed
// 2³¹ pairs must fail before allocating or wrapping. The bound check is
// exercised directly; nobody allocates 2³¹ pairs in a unit test.
func TestReducerArrivalIndexBound(t *testing.T) {
	if perm := identityPerm("ok", 3); !reflect.DeepEqual(perm, []int32{0, 1, 2}) {
		t.Fatalf("identityPerm(3) = %v", perm)
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, `"build.k1"`) || !strings.Contains(msg, "int32") {
			t.Fatalf("want a panic naming the job and the int32 bound, got %v", r)
		}
	}()
	identityPerm("build.k1", math.MaxInt32)
}
