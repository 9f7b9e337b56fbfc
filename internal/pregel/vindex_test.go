package pregel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkVindex asserts the table invariant: x indexes exactly ids (which must
// be distinct) — every ID resolves to its own position, nothing else is in
// the table, and the load factor is at most one half.
func checkVindex(t *testing.T, label string, x *vindex, ids []VertexID) {
	t.Helper()
	for i, id := range ids {
		if got, ok := x.lookup(ids, id); !ok || got != i {
			t.Fatalf("%s: lookup(%d) = %d,%v, want %d", label, id, got, ok, i)
		}
	}
	used := 0
	for _, p := range x.slots {
		if p != 0 {
			used++
		}
	}
	if used != len(ids) {
		t.Fatalf("%s: %d slots in use for %d ids", label, used, len(ids))
	}
	if n := len(x.slots); n&(n-1) != 0 || 2*len(ids) > n {
		t.Fatalf("%s: %d slots for %d ids (want a power of two, load <= 1/2)", label, n, len(ids))
	}
}

// collidingIDs returns n distinct IDs whose probe runs all start at the same
// slot in any table of up to 2^20 slots: their hashed high bits are equal.
// It inverts home(): the multiplier is odd, hence invertible mod 2^64, and
// the fold id ^ id>>32 is its own inverse on the low half.
func collidingIDs(n int) []VertexID {
	const c = 0x9E3779B97F4A7C15
	inv := uint64(c)
	for i := 0; i < 6; i++ { // Newton: doubles the correct low bits each round
		inv *= 2 - c*inv
	}
	ids := make([]VertexID, n)
	for i := range ids {
		f := (0xABCDE<<44 | uint64(i)) * inv
		ids[i] = VertexID(f ^ f>>32)
	}
	return ids
}

func TestVindex(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var x vindex
		if _, ok := x.lookup(nil, 0); ok {
			t.Fatal("the zero table holds ID 0")
		}
	})
	t.Run("extremes", func(t *testing.T) {
		var x vindex
		ids := []VertexID{math.MaxUint64, 0, 1 << 63, 1, math.MaxUint64 - 1}
		for i := range ids {
			x.push(ids[:i+1])
		}
		checkVindex(t, "extremes", &x, ids)
		if _, ok := x.lookup(ids, 2); ok {
			t.Fatal("absent ID 2 found")
		}
	})
	t.Run("colliding", func(t *testing.T) {
		ids := collidingIDs(600)
		var x vindex
		x.rebuild(nil, len(ids))
		if h0 := x.home(ids[0]); h0 != x.home(ids[len(ids)-1]) || h0 != x.home(ids[300]) {
			t.Fatal("collidingIDs does not collide; the test no longer exercises long probe runs")
		}
		var grown vindex
		for i := range ids {
			grown.push(ids[:i+1])
		}
		x.rebuild(ids, len(ids))
		checkVindex(t, "rebuilt", &x, ids)
		checkVindex(t, "grown", &grown, ids)
		for _, id := range collidingIDs(700)[600:] { // same run, not present
			if _, ok := x.lookup(ids, id); ok {
				t.Fatalf("absent colliding ID %d found", id)
			}
		}
	})
	t.Run("growth", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		var x vindex
		var ids []VertexID
		seen := map[VertexID]bool{}
		rebuilds, size := 0, 0
		for len(ids) < 5000 {
			id := VertexID(rng.Uint64() >> uint(rng.Intn(64)))
			if seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
			x.push(ids)
			if len(x.slots) != size {
				rebuilds, size = rebuilds+1, len(x.slots)
				checkVindex(t, fmt.Sprintf("after rebuild %d", rebuilds), &x, ids)
			}
		}
		checkVindex(t, "final", &x, ids)
		if rebuilds < 5 {
			t.Fatalf("only %d rebuilds while growing to 5000 entries", rebuilds)
		}
	})
	t.Run("too large", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("a partition beyond int32 positions did not fail")
			}
		}()
		var x vindex
		x.rebuild(nil, math.MaxInt32)
	})
}

// TestWorkerIndexThroughGraphOps walks the index through every worker-level
// operation that maintains it: re-adding a removed ID, compaction after
// removals (between-run and RemoveSelf) and checkpoint rollback.
func TestWorkerIndexThroughGraphOps(t *testing.T) {
	check := func(g *Graph[int64, int64], label string, model map[VertexID]int64) {
		t.Helper()
		for wi, w := range g.workers {
			checkVindex(t, fmt.Sprintf("%s: worker %d", label, wi), &w.idx, w.ids)
		}
		for id := VertexID(0); id < 400; id++ {
			got, ok := g.Value(id)
			if want, in := model[id]; ok != in || got != want {
				t.Fatalf("%s: Value(%d) = %d,%v, model %d,%v", label, id, got, ok, want, in)
			}
		}
	}
	g := NewGraph[int64, int64](Config{Workers: 4})
	model := map[VertexID]int64{}
	for i := 299; i >= 0; i-- { // descending: the first Run must sort and reindex
		g.AddVertex(VertexID(i), int64(i))
		model[VertexID(i)] = int64(i)
	}
	for i := 0; i < 300; i += 3 {
		g.RemoveVertex(VertexID(i))
		delete(model, VertexID(i))
	}
	g.AddVertex(30, -30) // re-add of a removed ID reuses its position
	model[30] = -30
	check(g, "before run", model)
	removeOdd := func(ctx *Context[int64], id VertexID, v *int64, _ []int64) {
		if id%2 == 1 {
			ctx.RemoveSelf()
		}
		ctx.VoteToHalt()
	}
	if _, err := g.Run(removeOdd); err != nil {
		t.Fatal(err)
	}
	for id := range model {
		if id%2 == 1 {
			delete(model, id)
		}
	}
	check(g, "after RemoveSelf run", model)
	g.AddVertex(301, 1)
	model[301] = 1
	if _, err := g.Run(func(ctx *Context[int64], _ VertexID, _ *int64, _ []int64) { ctx.VoteToHalt() }); err != nil {
		t.Fatal(err)
	}
	check(g, "after compacting run", model)

	// Checkpoint rollback: restore replaces ids wholesale.
	const n, k = 96, 8
	hub := buildHubGraph(Config{Workers: 4, CheckpointEvery: 2, Faults: NewFaultPlan(Fault{Round: 5})}, n)
	stats, err := hub.Run(hubCompute(n, k, 10))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("scenario did not exercise restore: %d recoveries", stats.Recoveries)
	}
	for wi, w := range hub.workers {
		checkVindex(t, fmt.Sprintf("hub worker %d", wi), &w.idx, w.ids)
	}
	for i := 0; i < n; i++ {
		if _, ok := hub.Value(VertexID(i)); !ok {
			t.Fatalf("vertex %d unreachable after rollback", i)
		}
	}
}

// FuzzVindex drives a table and a map through the same inserts, lookups and
// exact-size rebuilds.
func FuzzVindex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 255, 255, 255, 255, 255, 255, 255, 9})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var x vindex
		var ids []VertexID
		model := map[VertexID]int{}
		for len(data) > 0 {
			op := data[0]
			var id uint64
			for _, b := range data[1:min(len(data), 1+int(op%9))] {
				id = id<<8 | uint64(b)
			}
			data = data[min(len(data), 1+int(op%9)):]
			if op&0x10 != 0 {
				id = ^id // reach the top of the ID space too
			}
			want, in := model[VertexID(id)]
			if got, ok := x.lookup(ids, VertexID(id)); ok != in || ok && got != want {
				t.Fatalf("lookup(%d) = %d,%v, model %d,%v", id, got, ok, want, in)
			}
			switch {
			case !in:
				model[VertexID(id)] = len(ids)
				ids = append(ids, VertexID(id))
				x.push(ids)
			case op&0x20 != 0:
				x.rebuild(ids, len(ids))
			}
		}
		checkVindex(t, "final", &x, ids)
	})
}

// BenchmarkVertexLookup compares the flat table with the map[VertexID]int it
// replaced, on k-mer-like IDs (42 significant bits) with three hits to one
// miss, at a partition size that fits the cache and one that does not.
func BenchmarkVertexLookup(b *testing.B) {
	for _, n := range []int{40_000, 1_000_000} {
		rng := rand.New(rand.NewSource(7))
		ids := make([]VertexID, n)
		m := make(map[VertexID]int, n)
		for i := range ids {
			for {
				ids[i] = VertexID(rng.Uint64() >> 22)
				if _, dup := m[ids[i]]; !dup {
					break
				}
			}
			m[ids[i]] = i
		}
		var x vindex
		x.rebuild(ids, n)
		probes := make([]VertexID, 1<<16)
		for i := range probes {
			probes[i] = ids[rng.Intn(n)]
			if i%4 == 3 {
				probes[i] = VertexID(rng.Uint64()>>22 | 1<<50)
			}
		}
		sink := 0
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if p, ok := x.lookup(ids, probes[i&(len(probes)-1)]); ok {
					sink += p
				}
			}
		})
		b.Run(fmt.Sprintf("map/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if p, ok := m[probes[i&(len(probes)-1)]]; ok {
					sink += p
				}
			}
		})
		_ = sink
	}
}
