package pregel

import (
	"fmt"
	"reflect"
	"testing"
)

// wideMsg stands in for a graph's own, larger message type; the jobs below
// use only its ID.
type wideMsg struct {
	ID  VertexID
	Pad [2]int64
}

func (m *wideMsg) AppendCheckpoint(buf []byte) []byte {
	buf = AppendUint64(buf, uint64(m.ID))
	buf = AppendVarint(buf, m.Pad[0])
	return AppendVarint(buf, m.Pad[1])
}

func (m *wideMsg) DecodeCheckpoint(data []byte) ([]byte, error) {
	id, data, err := ConsumeUint64(data)
	if err != nil {
		return nil, err
	}
	m.ID = VertexID(id)
	for i := range m.Pad {
		if m.Pad[i], data, err = ConsumeVarint(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// viewJob is one min-label job written once for any message type that
// carries a vertex ID: every vertex adopts the smallest value it hears from
// its two ring neighbours and forwards a change, a few vertices remove
// themselves in superstep 1 (their messages are then dropped), and every
// third vertex keeps voting to stay active until superstep 4.
func viewJob[M any](wrap func(VertexID) M, unwrap func(M) VertexID, n VertexID) Compute[int64, M] {
	return func(ctx *Context[M], id VertexID, val *int64, msgs []M) {
		s := ctx.Superstep()
		changed := s == 0
		for _, m := range msgs {
			if d := int64(unwrap(m)); d < *val {
				*val, changed = d, true
			}
		}
		if s == 1 && id%11 == 5 {
			ctx.RemoveSelf()
			return
		}
		if changed {
			ctx.Send((id+1)%n, wrap(VertexID(*val)))
			ctx.Send((id+n-1)%n, wrap(VertexID(*val)))
		}
		if id%3 != 0 || s >= 4 {
			ctx.VoteToHalt()
		}
	}
}

// partitionState is every worker's vertex partition, for exact comparison.
func partitionState[V, M any](g *Graph[V, M]) []verts[V] {
	out := make([]verts[V], len(g.workers))
	for i, w := range g.workers {
		out[i] = verts[V]{ids: w.ids, vals: w.vals, active: w.active, dead: w.dead, nDead: w.nDead}
	}
	return out
}

// TestWithMessagesMatchesOwnMessageType: a job run through a WithMessages
// view with VertexID messages leaves every vertex value, active and dead
// flag and the vertex count exactly as the same job run with the graph's
// own wideMsg does, and a later Run on the original graph still matches —
// across workers {1, 4, 7}, Parallel on and off, and with checkpoints and a
// crash recovered through the view.
func TestWithMessagesMatchesOwnMessageType(t *testing.T) {
	const n = 300
	narrow := viewJob(func(id VertexID) VertexID { return id }, func(m VertexID) VertexID { return m }, n)
	wide := viewJob(func(id VertexID) wideMsg { return wideMsg{ID: id, Pad: [2]int64{int64(id), -1}} },
		func(m wideMsg) VertexID { return m.ID }, n)
	for _, workers := range []int{1, 4, 7} {
		for _, par := range []bool{false, true} {
			for _, ckpt := range []bool{false, true} {
				name := fmt.Sprintf("w%d-par%v-ckpt%v", workers, par, ckpt)
				cfg := func() Config {
					c := Config{Workers: workers, Parallel: par}
					if ckpt {
						c.CheckpointEvery = 2
						c.Faults = NewFaultPlan(Fault{Round: 3, Worker: 1})
					}
					return c
				}
				own := NewGraph[int64, wideMsg](cfg())
				orig := NewGraph[int64, wideMsg](cfg())
				for i := VertexID(0); i < n; i++ {
					own.AddVertex(i*7%n, int64(i*7%n))
					orig.AddVertex(i*7%n, int64(i*7%n))
				}
				want, err := own.Run(wide)
				if err != nil {
					t.Fatalf("%s: own message type: %v", name, err)
				}
				view := WithMessages[VertexID](orig, 8)
				got, err := view.Run(narrow)
				if err != nil {
					t.Fatalf("%s: view: %v", name, err)
				}
				if got.Supersteps != want.Supersteps || got.Messages != want.Messages || got.Recoveries != want.Recoveries {
					t.Errorf("%s: view ran %d supersteps, %d messages, %d recoveries; own type %d, %d, %d", name,
						got.Supersteps, got.Messages, got.Recoveries, want.Supersteps, want.Messages, want.Recoveries)
				}
				if ckpt && want.Recoveries != 1 {
					t.Errorf("%s: %d recoveries, want the injected crash recovered once", name, want.Recoveries)
				}
				for _, g := range []interface{ VertexCount() int }{orig, view} {
					if g.VertexCount() != own.VertexCount() {
						t.Errorf("%s: VertexCount %d, own type %d", name, g.VertexCount(), own.VertexCount())
					}
				}
				if !reflect.DeepEqual(partitionState(orig), partitionState(own)) {
					t.Errorf("%s: partitions after the view's job differ from the own type's", name)
				}
				// The original graph runs on over the view's result: the
				// next Run compacts away the removed vertices for both.
				if _, err := own.Run(wide); err != nil {
					t.Fatalf("%s: own type, second run: %v", name, err)
				}
				if _, err := orig.Run(wide); err != nil {
					t.Fatalf("%s: original graph, second run: %v", name, err)
				}
				if !reflect.DeepEqual(partitionState(orig), partitionState(own)) || orig.VertexCount() != own.VertexCount() {
					t.Errorf("%s: partitions after a later Run on the original graph differ", name)
				}
			}
		}
	}
}

// wideVal stands in for a graph's own, larger vertex value; RunAs jobs see
// only its Label.
type wideVal struct {
	Label int64
	Pad   [3]int64
}

func (v *wideVal) AppendCheckpoint(buf []byte) []byte {
	buf = AppendVarint(buf, v.Label)
	for _, p := range v.Pad {
		buf = AppendVarint(buf, p)
	}
	return buf
}

func (v *wideVal) DecodeCheckpoint(data []byte) (rest []byte, err error) {
	if v.Label, data, err = ConsumeVarint(data); err != nil {
		return nil, err
	}
	for i := range v.Pad {
		if v.Pad[i], data, err = ConsumeVarint(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func buildWideGraph(cfg Config, n VertexID) *Graph[wideVal, wideMsg] {
	g := NewGraph[wideVal, wideMsg](cfg)
	for i := VertexID(0); i < n; i++ {
		id := i * 7 % n
		g.AddVertex(id, wideVal{Label: int64(id), Pad: [3]int64{int64(i), -2, 3}})
	}
	return g
}

// labelIn and labelOut are the RunAs projections of wideVal onto the int64
// the narrow job runs over.
func labelIn(_ VertexID, v *wideVal) int64        { return v.Label }
func labelOut(_ VertexID, v *wideVal, lab *int64) { v.Label = *lab }

// liveState is partitionState with every value projected through f and a
// removed vertex's value zeroed: RunAs does not hand it back.
func liveState[V, M, T any](g *Graph[V, M], f func(*V) T) []verts[T] {
	out := make([]verts[T], len(g.workers))
	for i, w := range g.workers {
		vals := make([]T, len(w.vals))
		for j := range w.vals {
			if !w.dead[j] {
				vals[j] = f(&w.vals[j])
			}
		}
		out[i] = verts[T]{ids: w.ids, vals: vals, active: w.active, dead: w.dead, nDead: w.nDead}
	}
	return out
}

// values snapshots every live vertex value keyed by ID.
func values[V, M any](g *Graph[V, M]) map[VertexID]V {
	out := map[VertexID]V{}
	g.ForEach(func(id VertexID, v *V) { out[id] = *v })
	return out
}

// TestRunAsMatchesConvert: a job run through RunAs on a wideVal graph,
// over int64 values and VertexID messages, reports the same Stats (the
// simulated clock aside) and leaves the same values, active and removed
// flags as the job on a Convert-ed int64 graph, and the same whole wideVal
// partitions as the job run on the wideVal graph itself; a later Run on
// the graph still matches. Across workers {1, 4, 7}, Parallel on and off,
// and with checkpoints and a crash recovered inside the RunAs job.
func TestRunAsMatchesConvert(t *testing.T) {
	const n = 300
	narrow := viewJob(func(id VertexID) VertexID { return id }, func(m VertexID) VertexID { return m }, n)
	wide := viewJob(func(id VertexID) wideMsg { return wideMsg{ID: id, Pad: [2]int64{int64(id), -1}} },
		func(m wideMsg) VertexID { return m.ID }, n)
	ownJob := func(ctx *Context[wideMsg], id VertexID, v *wideVal, msgs []wideMsg) { wide(ctx, id, &v.Label, msgs) }
	label := func(v *wideVal) int64 { return v.Label }
	whole := func(v *wideVal) wideVal { return *v }
	for _, workers := range []int{1, 4, 7} {
		for _, par := range []bool{false, true} {
			for _, ckpt := range []bool{false, true} {
				name := fmt.Sprintf("w%d-par%v-ckpt%v", workers, par, ckpt)
				cfg := func() Config {
					c := Config{Workers: workers, Parallel: par, MessageBytes: 8}
					if ckpt {
						c.CheckpointEvery = 2
						c.Faults = NewFaultPlan(Fault{Round: 3, Worker: 1})
					}
					return c
				}
				conv := Convert[int64, VertexID](buildWideGraph(Config{Workers: workers}, n), cfg(),
					func(id VertexID, v wideVal, emit func(VertexID, int64)) { emit(id, v.Label) })
				want, err := conv.Run(narrow)
				if err != nil {
					t.Fatalf("%s: Convert-ed graph: %v", name, err)
				}
				g := buildWideGraph(cfg(), n)
				got, err := RunAs[int64, VertexID](g, 8, labelIn, narrow, labelOut)
				if err != nil {
					t.Fatalf("%s: RunAs: %v", name, err)
				}
				w, gt := *want, *got
				w.SimSeconds, gt.SimSeconds = 0, 0
				if gt != w {
					t.Errorf("%s: RunAs stats %+v\nConvert-ed graph %+v", name, gt, w)
				}
				if ckpt && got.Recoveries != 1 {
					t.Errorf("%s: %d recoveries, want the injected crash recovered once", name, got.Recoveries)
				}
				if !reflect.DeepEqual(liveState(g, label), liveState(conv, func(v *int64) int64 { return *v })) ||
					g.VertexCount() != conv.VertexCount() {
					t.Errorf("%s: partitions after RunAs differ from the Convert-ed graph's", name)
				}
				own := buildWideGraph(cfg(), n)
				if _, err := own.Run(ownJob); err != nil {
					t.Fatalf("%s: own value type: %v", name, err)
				}
				if !reflect.DeepEqual(liveState(g, whole), liveState(own, whole)) {
					t.Errorf("%s: partitions after RunAs differ from the job run on the graph's own values", name)
				}
				// The graph runs on over RunAs's result: the next Run
				// compacts away the removed vertices for both.
				for _, h := range []*Graph[wideVal, wideMsg]{own, g} {
					if _, err := h.Run(ownJob); err != nil {
						t.Fatalf("%s: second run: %v", name, err)
					}
				}
				if !reflect.DeepEqual(partitionState(g), partitionState(own)) || g.VertexCount() != own.VertexCount() {
					t.Errorf("%s: partitions after a later Run on the graph differ", name)
				}
			}
		}
	}
}

// TestRunAsResumesMidJob: a RunAs job that dies mid-run leaves the graph's
// values untouched, and a fresh process resuming its DirCheckpointer
// fast-forwards from the last checkpoint to the result of an unbroken run.
func TestRunAsResumesMidJob(t *testing.T) {
	const n = 300
	narrow := viewJob(func(id VertexID) VertexID { return id }, func(m VertexID) VertexID { return m }, n)
	ref := buildWideGraph(Config{Workers: 4}, n)
	var fullCalls int
	counted := func(calls *int) Compute[int64, VertexID] {
		return func(ctx *Context[VertexID], id VertexID, v *int64, msgs []VertexID) {
			*calls++
			narrow(ctx, id, v, msgs)
		}
	}
	want, err := RunAs[int64, VertexID](ref, 8, labelIn, counted(&fullCalls), labelOut)
	if err != nil {
		t.Fatal(err)
	}
	if want.Supersteps <= 6 {
		t.Fatalf("the job takes %d supersteps; the test needs it to outlast the first process's 5", want.Supersteps)
	}

	dir := t.TempDir()
	store1, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The first process dies at superstep 5, after checkpoints at 0, 2, 4.
	g1 := buildWideGraph(Config{Workers: 4, CheckpointEvery: 2, Checkpointer: store1, MaxSupersteps: 5}, n)
	before := values(g1)
	if _, err := RunAs[int64, VertexID](g1, 8, labelIn, narrow, labelOut, WithName("runas")); err == nil {
		t.Fatal("the first process's run did not fail at its superstep limit")
	}
	if !reflect.DeepEqual(values(g1), before) {
		t.Error("a failed RunAs changed the graph's values")
	}

	store2, err := NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildWideGraph(Config{Workers: 4, CheckpointEvery: 2, Checkpointer: store2, Resume: true}, n)
	var calls int
	got, err := RunAs[int64, VertexID](g2, 8, labelIn, counted(&calls), labelOut, WithName("runas"))
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointRestores != 1 || calls >= fullCalls {
		t.Errorf("resumed run: %d restores and %d compute calls, want 1 restore and fewer than an unbroken run's %d",
			got.CheckpointRestores, calls, fullCalls)
	}
	if got.Supersteps != want.Supersteps || got.Messages != want.Messages {
		t.Errorf("resumed run: %d supersteps, %d messages; unbroken run %d, %d",
			got.Supersteps, got.Messages, want.Supersteps, want.Messages)
	}
	if !reflect.DeepEqual(values(g2), values(ref)) {
		t.Error("partitions after the resumed RunAs differ from an unbroken run's")
	}
}
