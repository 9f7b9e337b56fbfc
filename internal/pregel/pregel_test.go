package pregel

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestSingleSuperstepHalt: vertices that halt immediately terminate the job
// after one superstep.
func TestSingleSuperstepHalt(t *testing.T) {
	g := NewGraph[int, int](Config{Workers: 4})
	for i := 0; i < 100; i++ {
		g.AddVertex(VertexID(i), i)
	}
	calls := 0
	st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		calls++
		ctx.VoteToHalt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 100 {
		t.Errorf("compute called %d times, want 100", calls)
	}
	if st.Supersteps != 1 {
		t.Errorf("supersteps = %d, want 1", st.Supersteps)
	}
}

// TestMessageReactivation: a halted vertex is reactivated by a message.
func TestMessageReactivation(t *testing.T) {
	g := NewGraph[int, int](Config{Workers: 3})
	g.AddVertex(1, 0)
	g.AddVertex(2, 0)
	_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		switch ctx.Superstep() {
		case 0:
			if id == 1 {
				ctx.Send(2, 41)
			}
			ctx.VoteToHalt()
		default:
			for _, m := range msgs {
				*val += m + 1
			}
			ctx.VoteToHalt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := g.Value(2)
	if v != 42 {
		t.Errorf("vertex 2 value = %d, want 42", v)
	}
	v1, _ := g.Value(1)
	if v1 != 0 {
		t.Errorf("vertex 1 value = %d, want 0 (never received)", v1)
	}
}

// TestPropagationChain: a token forwarded along a chain takes exactly
// chain-length supersteps and every hop counts one message.
func TestPropagationChain(t *testing.T) {
	const n = 50
	g := NewGraph[bool, struct{}](Config{Workers: 4})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), false)
	}
	st, err := g.Run(func(ctx *Context[struct{}], id VertexID, val *bool, msgs []struct{}) {
		if ctx.Superstep() == 0 {
			if id == 0 {
				*val = true
				ctx.Send(1, struct{}{})
			}
			ctx.VoteToHalt()
			return
		}
		if len(msgs) > 0 {
			*val = true
			if id+1 < n {
				ctx.Send(id+1, struct{}{})
			}
		}
		ctx.VoteToHalt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != n-1 {
		t.Errorf("messages = %d, want %d", st.Messages, n-1)
	}
	if st.Supersteps != n {
		t.Errorf("supersteps = %d, want %d", st.Supersteps, n)
	}
	g.ForEach(func(id VertexID, val *bool) {
		if !*val {
			t.Errorf("vertex %d never reached", id)
		}
	})
}

func TestNonStrictCountsDropped(t *testing.T) {
	g := NewGraph[int, int](Config{Workers: 2})
	g.AddVertex(1, 0)
	st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		if ctx.Superstep() == 0 {
			ctx.Send(999, 1)
		}
		ctx.VoteToHalt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedMessages != 1 {
		t.Errorf("dropped = %d, want 1", st.DroppedMessages)
	}
}

func TestMaxSuperstepsGuard(t *testing.T) {
	g := NewGraph[int, int](Config{Workers: 1, MaxSupersteps: 5})
	g.AddVertex(1, 0)
	g.AddVertex(2, 0)
	_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		ctx.Send(3-id, 1) // ping-pong forever
	})
	if err == nil {
		t.Fatal("expected superstep-limit error")
	}
}

func TestRemoveSelf(t *testing.T) {
	g := NewGraph[int, int](Config{Workers: 3})
	for i := 1; i <= 10; i++ {
		g.AddVertex(VertexID(i), i)
	}
	_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
		if id%2 == 0 {
			ctx.RemoveSelf()
			return
		}
		ctx.VoteToHalt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.VertexCount(); got != 5 {
		t.Errorf("VertexCount = %d, want 5", got)
	}
	if _, ok := g.Value(4); ok {
		t.Error("vertex 4 still present after RemoveSelf")
	}
	if _, ok := g.Value(5); !ok {
		t.Error("vertex 5 missing")
	}
}

func TestAggregatorsVisibleNextSuperstep(t *testing.T) {
	g := NewGraph[int64, int](Config{Workers: 2})
	for i := 1; i <= 10; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	_, err := g.Run(func(ctx *Context[int], id VertexID, val *int64, msgs []int) {
		switch ctx.Superstep() {
		case 0:
			ctx.AggSum(int64(id))
			ctx.AggOr(id == 7)
		case 1:
			*val = ctx.PrevAggSum()
			if !ctx.PrevAggOr() {
				*val = -2
			}
			ctx.VoteToHalt()
			return
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.ForEach(func(id VertexID, val *int64) {
		if *val != 55 {
			t.Errorf("vertex %d saw aggregate %d, want 55", id, *val)
		}
	})
}

func TestAddVertexReplacesAndRevives(t *testing.T) {
	g := NewGraph[int, int](Config{Workers: 2})
	g.AddVertex(7, 1)
	g.AddVertex(7, 2)
	if g.VertexCount() != 1 {
		t.Fatalf("VertexCount = %d, want 1", g.VertexCount())
	}
	if v, _ := g.Value(7); v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
	g.RemoveVertex(7)
	if g.VertexCount() != 0 {
		t.Fatalf("VertexCount after remove = %d", g.VertexCount())
	}
	g.AddVertex(7, 3)
	if v, ok := g.Value(7); !ok || v != 3 {
		t.Errorf("revived value = %d,%v, want 3,true", v, ok)
	}
}

func TestSetValue(t *testing.T) {
	g := NewGraph[string, int](Config{Workers: 2})
	g.AddVertex(1, "a")
	if !g.SetValue(1, "b") {
		t.Error("SetValue on existing vertex returned false")
	}
	if g.SetValue(2, "c") {
		t.Error("SetValue on missing vertex returned true")
	}
	if v, _ := g.Value(1); v != "b" {
		t.Errorf("value = %q", v)
	}
}

// TestDeterminismAcrossWorkerCounts: the same vertex-sum computation yields
// identical results for any worker count, and repeated runs are identical.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) map[VertexID]int {
		g := NewGraph[int, int](Config{Workers: workers})
		r := rand.New(rand.NewSource(1))
		const n = 200
		edges := make(map[VertexID][]VertexID)
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < 3; j++ {
				edges[VertexID(i)] = append(edges[VertexID(i)], VertexID(r.Intn(n)))
			}
		}
		_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			if ctx.Superstep() == 0 {
				for _, d := range edges[id] {
					ctx.Send(d, int(id))
				}
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				*val += m
			}
			ctx.VoteToHalt()
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[VertexID]int)
		g.ForEach(func(id VertexID, val *int) { out[id] = *val })
		return out
	}
	base := run(1)
	for _, w := range []int{2, 3, 8, 16} {
		got := run(w)
		for id, v := range base {
			if got[id] != v {
				t.Fatalf("workers=%d vertex %d: got %d want %d", w, id, got[id], v)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	build := func(parallel bool) map[VertexID]int {
		g := NewGraph[int, int](Config{Workers: 4, Parallel: parallel})
		const n = 300
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), 0)
		}
		_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			if ctx.Superstep() == 0 {
				ctx.Send((id*7+3)%n, int(id))
				ctx.AggSum(1)
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				*val += m + int(ctx.PrevAggSum())
			}
			ctx.VoteToHalt()
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[VertexID]int)
		g.ForEach(func(id VertexID, val *int) { out[id] = *val })
		return out
	}
	seq, par := build(false), build(true)
	for id, v := range seq {
		if par[id] != v {
			t.Fatalf("vertex %d: parallel %d != sequential %d", id, par[id], v)
		}
	}
}

// TestForEachConsistentWithWorkerOf: ForEach visits every vertex once, in
// WorkerOf's worker order and then ID order, and each vertex it visits is
// stored on the worker WorkerOf names.
func TestForEachConsistentWithWorkerOf(t *testing.T) {
	g := NewGraph[int, int](Config{Workers: 5})
	for i := 0; i < 100; i++ {
		g.AddVertex(VertexID(i*31), 0)
	}
	seen, last, lastW := 0, VertexID(0), -1
	g.ForEach(func(id VertexID, _ *int) {
		w := g.WorkerOf(id)
		if w < lastW || w == lastW && id <= last {
			t.Errorf("vertex %d (worker %d) visited after vertex %d (worker %d)", id, w, last, lastW)
		}
		if _, ok := g.workers[w].live(id); !ok {
			t.Errorf("vertex %d is not stored on worker %d, which WorkerOf names", id, w)
		}
		seen, last, lastW = seen+1, id, w
	})
	if seen != 100 {
		t.Errorf("ForEach visited %d vertices, want 100", seen)
	}
}

func TestPropVertexStoreSetGet(t *testing.T) {
	// Random add/remove/set sequences keep Value/VertexCount consistent
	// with a reference map.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph[int, int](Config{Workers: 1 + r.Intn(6)})
		ref := map[VertexID]int{}
		for op := 0; op < 300; op++ {
			id := VertexID(r.Intn(40))
			switch r.Intn(3) {
			case 0:
				v := r.Int()
				g.AddVertex(id, v)
				ref[id] = v
			case 1:
				g.RemoveVertex(id)
				delete(ref, id)
			case 2:
				got, ok := g.Value(id)
				want, wok := ref[id]
				if ok != wok || (ok && got != want) {
					return false
				}
			}
		}
		return g.VertexCount() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHashIDSpreads(t *testing.T) {
	// Structured contig-style IDs (high bit set, low ordinal counter) must
	// still spread across workers.
	const workers = 8
	counts := make([]int, workers)
	for j := 1; j <= 8000; j++ {
		id := VertexID(1)<<63 | VertexID(j)
		counts[int(hashID(id)%workers)]++
	}
	for w, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("worker %d got %d of 8000 structured IDs", w, c)
		}
	}
}

func TestSimClockCharges(t *testing.T) {
	c := NewSimClock(CostModel{SuperstepLatency: 0, BytesPerSecond: 1e6, ComputeScale: 1})
	c.ChargeSuperstep([]float64{5e8, 2e8}, []float64{1e6, 0}) // 0.5s compute + 1s transfer
	if got := c.Seconds(); got < 1.49 || got > 1.51 {
		t.Errorf("Seconds = %v, want ~1.5", got)
	}
	c.Reset()
	if c.Seconds() != 0 {
		t.Error("Reset did not zero the clock")
	}
	c.ChargeSerial(2e9)
	c.ChargeTransfer(1e6)
	if got := c.Seconds(); got < 2.99 || got > 3.01 {
		t.Errorf("Seconds = %v, want ~3", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := &Stats{Supersteps: 2, Messages: 10, Bytes: 100, SimSeconds: 1}
	b := &Stats{Supersteps: 3, Messages: 5, Bytes: 50, SimSeconds: 4}
	a.Add(b)
	if a.Supersteps != 5 || a.Messages != 15 || a.Bytes != 150 || a.SimSeconds != 4 {
		t.Errorf("Add result = %+v", a)
	}
}

func ExampleGraph_Run() {
	// Count each vertex's in-degree in a tiny ring.
	g := NewGraph[int, struct{}](Config{Workers: 2})
	for i := 0; i < 4; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	_, _ = g.Run(func(ctx *Context[struct{}], id VertexID, val *int, msgs []struct{}) {
		if ctx.Superstep() == 0 {
			ctx.Send((id+1)%4, struct{}{})
			ctx.VoteToHalt()
			return
		}
		*val = len(msgs)
		ctx.VoteToHalt()
	})
	var ids []int
	g.ForEach(func(id VertexID, val *int) { ids = append(ids, *val) })
	sort.Ints(ids)
	fmt.Println(ids)
	// Output: [1 1 1 1]
}

// AddrOf returns the address of vertex id, for a job that sends to it by
// address. It is meant for RunAs's in function, where g has just been sorted
// and the copy's positions are g's; like every address it is valid for that
// one run. It reads the ID index only, so a vertex removed since g's last
// compaction still resolves.
func (g *Graph[V, M]) AddrOf(id VertexID) (Addr, bool) {
	wi := g.WorkerOf(id)
	w := g.workers[wi]
	i, ok := w.index().lookup(w.ids, id)
	return addrAt(wi, uint32(i)), ok
}

// SetValue overwrites the value of an existing vertex and reports whether
// the vertex was present.
func (g *Graph[V, M]) SetValue(id VertexID, val V) bool {
	w := g.workers[g.WorkerOf(id)]
	if i, ok := w.live(id); ok {
		w.vals[i] = val
		return true
	}
	return false
}

// RemoveVertex deletes a vertex outside of a run.
func (g *Graph[V, M]) RemoveVertex(id VertexID) {
	w := g.workers[g.WorkerOf(id)]
	if i, ok := w.live(id); ok {
		w.dead[i] = true
		w.nDead++
	}
}
