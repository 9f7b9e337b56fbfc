package pregel

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func lessU64(a, b uint64) bool { return a < b }

func TestMapReduceWordCount(t *testing.T) {
	lines := []string{"a b a", "b c", "a"}
	input := ShardSlice(lines, 3)
	wordID := func(w string) uint64 {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(w); i++ {
			h = (h ^ uint64(w[i])) * 1099511628211
		}
		return h
	}
	type kv struct {
		word  string
		count int
	}
	// Key by hash of word; carry the word in the value for output.
	out, st := MapReduce(
		NewSimClock(DefaultCost()), Config{Workers: 3}, MRConfig{PairBytes: 16}, input,
		func(w int, line string, emit func(uint64, string)) {
			for _, word := range strings.Fields(line) {
				emit(wordID(word), word)
			}
		},
		Uint64Hash, lessU64,
		func(w int, key uint64, vals []string, emit func(kv)) {
			emit(kv{vals[0], len(vals)})
		},
	)
	if st.Messages != 6 {
		t.Errorf("shuffled pairs = %d, want 6", st.Messages)
	}
	got := map[string]int{}
	for _, o := range Flatten(out) {
		got[o.word] = o.count
	}
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
}

func TestMapReduceGroupsAllValuesForKey(t *testing.T) {
	// Every value emitted under one key must appear in exactly one reduce
	// call, regardless of which mapper emitted it.
	input := make([]int, 100)
	for i := range input {
		input[i] = i
	}
	out, _ := MapReduce(
		NewSimClock(DefaultCost()), Config{Workers: 7}, MRConfig{PairBytes: 8}, ShardSlice(input, 7),
		func(w int, item int, emit func(uint64, int)) {
			emit(uint64(item%10), item)
		},
		Uint64Hash, lessU64,
		func(w int, key uint64, vals []int, emit func(int)) {
			sum := 0
			for _, v := range vals {
				if uint64(v%10) != key {
					t.Errorf("value %d grouped under key %d", v, key)
				}
				sum += v
			}
			emit(sum)
		},
	)
	total := 0
	for _, v := range Flatten(out) {
		total += v
	}
	if total != 99*100/2 {
		t.Errorf("total = %d, want %d", total, 99*100/2)
	}
}

func TestMapReduceDeterministicValueOrder(t *testing.T) {
	// Values within a group arrive in (source worker, emission order),
	// which must be stable across runs.
	input := ShardSlice([]int{5, 1, 9, 3, 7, 2, 8}, 3)
	run := func() []int {
		out, _ := MapReduce(
			NewSimClock(DefaultCost()), Config{Workers: 3}, MRConfig{PairBytes: 8}, input,
			func(w int, item int, emit func(uint64, int)) { emit(0, item) },
			Uint64Hash, lessU64,
			func(w int, key uint64, vals []int, emit func(int)) {
				for _, v := range vals {
					emit(v)
				}
			},
		)
		return Flatten(out)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic value order: %v vs %v", a, b)
		}
	}
}

func TestMapReduceEmptyInput(t *testing.T) {
	out, st := MapReduce(
		NewSimClock(DefaultCost()), Config{Workers: 4}, MRConfig{PairBytes: 8}, nil,
		func(w int, item struct{}, emit func(uint64, int)) {},
		Uint64Hash, lessU64,
		func(w int, key uint64, vals []int, emit func(int)) { emit(1) },
	)
	if len(Flatten(out)) != 0 || st.Messages != 0 {
		t.Errorf("empty input produced output %v, stats %+v", out, st)
	}
}

func TestShardSliceFlattenRoundTrip(t *testing.T) {
	f := func(n uint8, w uint8) bool {
		items := make([]int, int(n))
		for i := range items {
			items[i] = i
		}
		shards := ShardSlice(items, int(w%10))
		flat := Flatten(shards)
		if len(flat) != len(items) {
			return false
		}
		sort.Ints(flat)
		for i, v := range flat {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMapReduceEquivalentToSequentialGroupBy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		items := make([]uint64, n)
		for i := range items {
			items[i] = uint64(r.Intn(20))
		}
		workers := 1 + r.Intn(8)
		out, _ := MapReduce(
			NewSimClock(DefaultCost()), Config{Workers: workers}, MRConfig{PairBytes: 8}, ShardSlice(items, workers),
			func(w int, item uint64, emit func(uint64, uint64)) { emit(item, 1) },
			Uint64Hash, lessU64,
			func(w int, key uint64, vals []uint64, emit func([2]uint64)) {
				emit([2]uint64{key, uint64(len(vals))})
			},
		)
		want := map[uint64]uint64{}
		for _, it := range items {
			want[it]++
		}
		got := map[uint64]uint64{}
		for _, o := range Flatten(out) {
			got[o[0]] = o[1]
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConvertChainsGraphs(t *testing.T) {
	cfg := Config{Workers: 3}
	g1 := NewGraph[int, int](cfg)
	for i := 1; i <= 10; i++ {
		g1.AddVertex(VertexID(i), i*i)
	}
	// Job j' gets one vertex per even source vertex, value doubled, and
	// shares the clock.
	g2 := Convert[int64, string](g1, cfg, func(id VertexID, val int, emit func(VertexID, int64)) {
		if id%2 == 0 {
			emit(id*100, int64(val)*2)
		}
	})
	if g2.VertexCount() != 5 {
		t.Fatalf("converted count = %d, want 5", g2.VertexCount())
	}
	if v, ok := g2.Value(400); !ok || v != 32 {
		t.Errorf("g2[400] = %d,%v, want 32,true", v, ok)
	}
	if g2.Clock() != g1.Clock() {
		t.Error("converted graph does not share the source clock")
	}
}

func TestConvertFanOut(t *testing.T) {
	cfg := Config{Workers: 2}
	g1 := NewGraph[int, int](cfg)
	g1.AddVertex(1, 3)
	g2 := Convert[int, int](g1, cfg, func(id VertexID, val int, emit func(VertexID, int)) {
		for i := 0; i < val; i++ {
			emit(VertexID(100+i), i)
		}
	})
	if g2.VertexCount() != 3 {
		t.Errorf("fan-out count = %d, want 3", g2.VertexCount())
	}
}
