package pregel

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// The reference interpreter: Pregel semantics written the naive way — a map
// of vertices, a slice of messages per superstep, no arenas, lanes, eager
// folds or index structures — so a bug shared by every engine configuration
// still shows up as a difference. It shares nothing with the engine except
// the placement function, which it needs because the engine's documented
// orders (compute in worker-then-ID order, inbox in source-worker-then-
// emission order, combiner folds per source worker) are part of the
// contract being checked.

// progCtx is the part of the compute context a test program may use;
// *Context[int64] and *refCtx both provide it.
type progCtx interface {
	Superstep() int
	Send(dst VertexID, m int64)
	VoteToHalt()
	RemoveSelf()
	AggSum(name string, delta int64)
	AggMin(name string, v int64)
	AggOr(name string, v bool)
	PrevAggSum(name string) int64
	PrevAggMin(name string) (int64, bool)
	PrevAggOr(name string) bool
}

type refProgram func(ctx progCtx, id VertexID, val *int64, msgs []int64)

type refVertex struct {
	val    int64
	active bool
}

type refMsg struct {
	src int // sending worker
	dst VertexID
	m   int64
}

type refAggs struct {
	sum, min map[string]int64
	or       map[string]bool
}

func newRefAggs() *refAggs {
	return &refAggs{sum: map[string]int64{}, min: map[string]int64{}, or: map[string]bool{}}
}

type refGraph struct {
	verts    map[VertexID]*refVertex
	workerOf func(VertexID) int
	comb     func(a, b int64) int64
	total    bool
	strict   bool
}

type refCtx struct {
	step         int
	src          int
	out          *[]refMsg
	halt, remove bool
	cur, prev    *refAggs
}

func (c *refCtx) Superstep() int               { return c.step }
func (c *refCtx) Send(dst VertexID, m int64)   { *c.out = append(*c.out, refMsg{c.src, dst, m}) }
func (c *refCtx) VoteToHalt()                  { c.halt = true }
func (c *refCtx) RemoveSelf()                  { c.remove = true }
func (c *refCtx) AggSum(name string, d int64)  { c.cur.sum[name] += d }
func (c *refCtx) AggOr(name string, v bool)    { c.cur.or[name] = c.cur.or[name] || v }
func (c *refCtx) PrevAggSum(name string) int64 { return c.prev.sum[name] }
func (c *refCtx) PrevAggOr(name string) bool   { return c.prev.or[name] }
func (c *refCtx) AggMin(name string, v int64) {
	if cur, ok := c.cur.min[name]; !ok || v < cur {
		c.cur.min[name] = v
	}
}
func (c *refCtx) PrevAggMin(name string) (int64, bool) {
	if v, ok := c.prev.min[name]; ok {
		return v, true
	}
	return math.MaxInt64, false
}

// run executes prog to termination and returns the counters Graph.Run
// reports (Supersteps, Messages, LocalMessages, DroppedMessages).
func (r *refGraph) run(prog refProgram) (Stats, error) {
	var st Stats
	for _, v := range r.verts {
		v.active = true
	}
	inbox := map[VertexID][]int64{}
	prev, cur := newRefAggs(), newRefAggs()
	for pending := 0; ; st.Supersteps++ {
		anyActive := false
		for _, v := range r.verts {
			anyActive = anyActive || v.active
		}
		if !anyActive && pending == 0 {
			return st, nil
		}
		order := slices.SortedFunc(maps.Keys(r.verts), func(a, b VertexID) int {
			return cmp.Or(cmp.Compare(r.workerOf(a), r.workerOf(b)), cmp.Compare(a, b))
		})
		var out []refMsg // in (source worker, emission) order, because order is
		for _, id := range order {
			v, msgs := r.verts[id], inbox[id]
			if len(msgs) > 0 {
				v.active = true
			}
			if !v.active {
				continue
			}
			ctx := &refCtx{step: st.Supersteps, src: r.workerOf(id), out: &out, cur: cur, prev: prev}
			prog(ctx, id, &v.val, msgs)
			if ctx.remove {
				delete(r.verts, id)
			} else if ctx.halt {
				v.active = false
			}
		}
		if r.comb != nil { // sender-side: one message per (source worker, destination)
			var folded []refMsg
			at := map[[2]uint64]int{}
			for _, m := range out {
				k := [2]uint64{uint64(m.src), uint64(m.dst)}
				if i, ok := at[k]; ok {
					folded[i].m = r.comb(folded[i].m, m.m)
					continue
				}
				at[k] = len(folded)
				folded = append(folded, m)
			}
			out = folded
		}
		inbox, pending = map[VertexID][]int64{}, 0
		var err error
		for _, m := range out {
			st.Messages++
			if r.workerOf(m.dst) == m.src {
				st.LocalMessages++
			}
			if r.verts[m.dst] == nil {
				st.DroppedMessages++
				if r.strict && err == nil {
					err = fmt.Errorf("message to nonexistent vertex %d", m.dst)
				}
				continue
			}
			pending++
			if box := inbox[m.dst]; r.comb != nil && r.total && len(box) > 0 {
				box[0] = r.comb(box[0], m.m)
			} else {
				inbox[m.dst] = append(box, m.m)
			}
		}
		if err != nil {
			return st, err
		}
		prev, cur = cur, newRefAggs()
	}
}

// refScenario is one differential case: a configuration plus a seed that
// determines the graph, two programs and the between-run mutations.
type refScenario struct {
	seed     int64
	workers  int
	parallel bool
	// wire checkpoints at every barrier, so each superstep's vertex values
	// and pending messages cross their binary codecs — the serialised path
	// that remains now that the shuffle is in-process only. With crash, the
	// recovery restores from the previous superstep's checkpoint.
	wire bool
	// oversub ("ov" in the name) raises GOMAXPROCS to the worker count for
	// the scenario, so the executor's pool is one goroutine per logical
	// worker — the schedule of a host with more cores than this one —
	// instead of the few the test machine has.
	oversub           bool
	combine           int // 0 none, 1 partial, 2 total
	strict, rangePart bool
	crash             bool // checkpoint every 2 supersteps and crash once at round 2
	delta             bool // with crash: the checkpoints after the first are deltas
	// addr runs a twin graph whose program sends by address (SendTo) where
	// the other sends by ID, and holds it to the same values, aggregators
	// and counters. Both programs then send only to vertices that exist
	// when the run starts, because only those have an address.
	addr bool
}

func (sc refScenario) String() string {
	name := fmt.Sprintf("seed%d-w%d-par%v-ov%v-wire%v-comb%d-strict%v-range%v-crash%v", sc.seed, sc.workers,
		sc.parallel, sc.oversub, sc.wire, sc.combine, sc.strict, sc.rangePart, sc.crash)
	if sc.delta {
		name += "-delta"
	}
	if sc.addr {
		name += "-addr"
	}
	return name
}

// sendCtx is a program context whose Send goes through send.
type sendCtx struct {
	progCtx
	send func(dst VertexID, m int64)
}

func (c sendCtx) Send(dst VertexID, m int64) { c.send(dst, m) }

// addressed returns prog restricted to the destinations in addrs, the
// vertices that exist when a run starts: the by-ID form of the program and
// its by-address twin, which sends the same messages with SendTo.
func addressed(prog refProgram, addrs map[VertexID]Addr) (byID refProgram, byAddr Compute[int64, int64]) {
	byID = func(ctx progCtx, id VertexID, val *int64, msgs []int64) {
		prog(sendCtx{ctx, func(dst VertexID, m int64) {
			if _, ok := addrs[dst]; ok {
				ctx.Send(dst, m)
			}
		}}, id, val, msgs)
	}
	byAddr = func(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
		prog(sendCtx{ctx, func(dst VertexID, m int64) {
			if a, ok := addrs[dst]; ok {
				ctx.SendTo(a, m)
			}
		}}, id, val, msgs)
	}
	return byID, byAddr
}

// refIDs is the ID pool scenarios draw from: the extremes, a run of IDs
// equal in their high bits, a dense low range and a few random ones.
func refIDs(rng *rand.Rand) []VertexID {
	ids := []VertexID{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}
	for i := 0; i < 12; i++ {
		ids = append(ids, VertexID(0xABCD<<48|uint64(i)), VertexID(100+i))
	}
	for i := 0; i < 24; i++ {
		ids = append(ids, VertexID(rng.Uint64()))
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// refProgramFor builds a terminating program from rng: an order-sensitive
// fold of the inbox, sends along fixed random edges (some to IDs outside the
// graph), all three aggregator families read back into the value, early
// halts and self-removal. It is a pure function of its arguments and of
// read-only tables, so it is safe under Parallel.
func refProgramFor(rng *rand.Rand, pool []VertexID, missing bool) refProgram {
	edges := map[VertexID][]VertexID{}
	for _, id := range pool {
		for j := rng.Intn(4); j > 0; j-- {
			dst := pool[rng.Intn(len(pool))]
			if missing && rng.Intn(8) == 0 {
				dst = VertexID(rng.Uint64() | 1<<62)
			}
			edges[id] = append(edges[id], dst)
		}
	}
	limit, haltMod, removeMod := 3+rng.Intn(6), int64(2+rng.Intn(5)), uint64(3+rng.Intn(9))
	removeStep, selfSend := rng.Intn(limit), rng.Intn(2) == 0
	return func(ctx progCtx, id VertexID, val *int64, msgs []int64) {
		step := ctx.Superstep()
		for _, m := range msgs {
			*val = *val*31 + m
		}
		*val += ctx.PrevAggSum("s")
		if mn, ok := ctx.PrevAggMin("m"); ok {
			*val ^= mn
		}
		if ctx.PrevAggOr("o") {
			*val++
		}
		ctx.AggSum("s", *val&0xff)
		ctx.AggMin("m", *val%1000)
		ctx.AggOr("o", *val&1 == 0)
		if step == removeStep && hashID(id)%removeMod == 0 {
			ctx.RemoveSelf()
		}
		if step >= limit {
			ctx.VoteToHalt()
			return
		}
		for j, dst := range edges[id] {
			ctx.Send(dst, *val^int64(step*1000+j))
		}
		if selfSend {
			ctx.Send(id, int64(step))
		}
		if (*val+int64(step))%haltMod == 0 {
			ctx.VoteToHalt()
		}
	}
}

// runRefScenario drives the engine and the reference through the same two
// runs with vertex additions and removals in between, comparing the live
// vertex set, every value and the run counters after each run; with addr
// set, a by-address twin graph too.
func runRefScenario(t *testing.T, sc refScenario) {
	t.Helper()
	rng := rand.New(rand.NewSource(sc.seed))
	if sc.oversub {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(sc.workers, runtime.NumCPU())))
	}
	newEngine := func() *Graph[int64, int64] {
		cfg := Config{Workers: sc.workers, Parallel: sc.parallel, Strict: sc.strict, Warn: func(string) {}}
		if sc.rangePart {
			cfg.Partitioner = RangePartitioner{Bits: 8}
		}
		if sc.crash {
			cfg.CheckpointEvery, cfg.Faults = 2, NewFaultPlan(Fault{Round: 2, Worker: 1})
			cfg.DeltaCheckpoints = sc.delta
		}
		if sc.wire {
			cfg.CheckpointEvery = 1
		}
		return NewGraph[int64, int64](cfg)
	}
	engines := []*Graph[int64, int64]{newEngine()}
	if sc.addr {
		engines = append(engines, newEngine())
	}
	g := engines[0]
	ref := &refGraph{verts: map[VertexID]*refVertex{}, workerOf: g.WorkerOf, strict: sc.strict}
	if sc.combine > 0 {
		comb := func(a, b int64) int64 { return a + b }
		if rng.Intn(2) == 0 {
			comb = func(a, b int64) int64 { return min(a, b) }
		}
		ref.comb, ref.total = comb, sc.combine == 2
		for _, e := range engines {
			if ref.total {
				e.SetTotalCombiner(comb)
			} else {
				e.SetCombiner(comb)
			}
		}
	}
	pool := refIDs(rng)
	add := func(id VertexID, val int64) {
		for _, e := range engines {
			e.AddVertex(id, val)
		}
		ref.verts[id] = &refVertex{val: val}
	}
	for _, id := range pool[:rng.Intn(len(pool))+1] {
		add(id, rng.Int63n(1000))
	}
	for run := 0; run < 2; run++ {
		prog := refProgramFor(rng, pool, !sc.addr && (!sc.strict || rng.Intn(2) == 0))
		computes := []Compute[int64, int64]{func(ctx *Context[int64], id VertexID, val *int64, msgs []int64) {
			prog(ctx, id, val, msgs)
		}}
		if sc.addr {
			// Addresses are positions after Run's compaction and sort,
			// which the twin's partitions get here first (Run then finds
			// nothing to do), so the table holds the run's addresses.
			tw := engines[1]
			tw.sortVertices()
			addrs := map[VertexID]Addr{}
			for _, id := range pool {
				if a, ok := tw.AddrOf(id); ok {
					addrs[id] = a
				}
			}
			var byAddr Compute[int64, int64]
			prog, byAddr = addressed(prog, addrs)
			computes = append(computes, byAddr)
		}
		want, wantErr := ref.run(prog)
		for e, eng := range engines {
			got, gotErr := eng.Run(computes[e], WithName(fmt.Sprintf("ref%d", run)))
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("run %d engine %d: engine error %v, reference error %v", run, e, gotErr, wantErr)
			}
			if gotErr != nil {
				continue // a Strict failure leaves the graph mid-superstep by contract
			}
			vals := map[VertexID]int64{}
			eng.ForEach(func(id VertexID, v *int64) { vals[id] = *v })
			wantVals := map[VertexID]int64{}
			for id, v := range ref.verts {
				wantVals[id] = v.val
			}
			if !reflect.DeepEqual(vals, wantVals) {
				t.Fatalf("run %d engine %d: vertex values differ from the reference:\n got %v\nwant %v", run, e, vals, wantVals)
			}
			if eng.VertexCount() != len(ref.verts) {
				t.Fatalf("run %d engine %d: VertexCount %d, reference has %d", run, e, eng.VertexCount(), len(ref.verts))
			}
			if got.Supersteps != want.Supersteps || got.Messages != want.Messages ||
				got.LocalMessages != want.LocalMessages || got.RemoteMessages != want.Messages-want.LocalMessages ||
				got.DroppedMessages != want.DroppedMessages {
				t.Fatalf("run %d engine %d: counters differ: engine supersteps=%d msgs=%d local=%d remote=%d dropped=%d, reference supersteps=%d msgs=%d local=%d dropped=%d",
					run, e, got.Supersteps, got.Messages, got.LocalMessages, got.RemoteMessages, got.DroppedMessages,
					want.Supersteps, want.Messages, want.LocalMessages, want.DroppedMessages)
			}
			if e > 0 && !reflect.DeepEqual(eng.agg.snapshot(), g.agg.snapshot()) {
				t.Fatalf("run %d: by-address aggregators %v, by ID %v", run, eng.agg.snapshot(), g.agg.snapshot())
			}
		}
		if wantErr != nil {
			return
		}
		// Between runs: remove some live vertices, re-add removed IDs (by the
		// run's RemoveSelf or just now) and brand-new ones, replace a value.
		for _, id := range pool {
			switch rng.Intn(5) {
			case 0:
				for _, e := range engines {
					e.RemoveVertex(id)
				}
				delete(ref.verts, id)
			case 1:
				add(id, rng.Int63n(1000))
			}
			for e, eng := range engines {
				if v, ok := eng.Value(id); ok != (ref.verts[id] != nil) || ok && v != ref.verts[id].val {
					t.Fatalf("run %d engine %d: Value(%d) = %d,%v disagrees with the reference", run, e, id, v, ok)
				}
			}
		}
	}
}

// TestRunMatchesReference is the seeded table form of the differential
// check: every engine schedule and delivery path against the interpreter.
func TestRunMatchesReference(t *testing.T) {
	refTable(t, func(sc refScenario, k int) refScenario {
		sc.rangePart, sc.crash = k == 1, k == 2
		return sc
	}, 3)
}

// TestSendToMatchesReference is the same table with a by-address twin in
// every scenario, and crashes recovered from delta checkpoints as well as
// full ones.
func TestSendToMatchesReference(t *testing.T) {
	refTable(t, func(sc refScenario, k int) refScenario {
		sc.rangePart, sc.crash, sc.delta, sc.addr = k == 1, k >= 2, k == 3, true
		return sc
	}, 4)
}

// refTable runs one subtest per configuration — workers, schedule, wire,
// combiner, Strict — and per variant k < variants, which vary shapes.
func refTable(t *testing.T, vary func(sc refScenario, k int) refScenario, variants int) {
	seed := int64(0)
	for _, workers := range []int{1, 4, 7} {
		for _, mode := range []struct{ parallel, oversub bool }{{false, false}, {true, false}, {true, true}} {
			for _, wire := range []bool{false, true} {
				for combine := 0; combine < 3; combine++ {
					for _, strict := range []bool{false, true} {
						for k := 0; k < variants; k++ {
							seed++
							sc := vary(refScenario{seed: seed, workers: workers, parallel: mode.parallel, oversub: mode.oversub,
								wire: wire, combine: combine, strict: strict}, k)
							t.Run(sc.String(), func(t *testing.T) { runRefScenario(t, sc) })
						}
					}
				}
			}
		}
	}
}

// FuzzRunMatchesReference lets the fuzzer pick the seed and configuration.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(0x1ff))
	f.Add(int64(77), uint16(0x2a6))
	f.Add(int64(5), uint16(0x1cbc)) // by address, crash with delta checkpoints, total combiner, wire
	f.Fuzz(func(t *testing.T, seed int64, bits uint16) {
		bit := func(i int) bool { return bits>>i&1 == 1 }
		runRefScenario(t, refScenario{seed: seed, workers: int(bits&7) + 1, parallel: bit(3), oversub: bit(3) && bit(4),
			wire: bit(5), combine: int(bits>>6&3) % 3, strict: bit(8), rangePart: bit(9), crash: bit(10),
			delta: bit(10) && bit(12), addr: bit(11)})
	})
}
