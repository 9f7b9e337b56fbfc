package pregel

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// addrVal is the value of the by-address ring job below: the addresses the
// parent resolved for the vertex itself and its two ring neighbours, and
// the label.
type addrVal struct {
	Self, Next, Prev Addr
	Label            int64
}

func (v *addrVal) AppendCheckpoint(buf []byte) []byte {
	for _, a := range [...]Addr{v.Self, v.Next, v.Prev} {
		buf = AppendUvarint(buf, uint64(a))
	}
	return AppendVarint(buf, v.Label)
}

func (v *addrVal) DecodeCheckpoint(data []byte) (rest []byte, err error) {
	for _, a := range [...]*Addr{&v.Self, &v.Next, &v.Prev} {
		var x uint64
		if x, data, err = ConsumeUvarint(data); err != nil {
			return nil, err
		}
		*a = Addr(x)
	}
	v.Label, data, err = ConsumeVarint(data)
	return data, err
}

// TestRunAsPinsPositions: a RunAs copy runs over its parent's positions —
// g.AddrOf in the in function gives every vertex the address Context.Addr
// reports in every superstep — and a checkpoint restore puts every vertex
// back at the same position, whether in-process after a crash or in a new
// process resuming a DirCheckpointer mid-job. The ring job sends only by
// address, and it leaves the parent's IDs, which the copy shares, as they
// were. The parent has removed
// vertices and was filled out of ID order, so RunAs's own compaction and
// sort decide the positions. Across workers {1, 4, 7}, both schedules.
func TestRunAsPinsPositions(t *testing.T) {
	const n = 300
	var checked, moved atomic.Int64
	build := func(cfg Config) *Graph[wideVal, wideMsg] {
		g := buildWideGraph(cfg, n)
		for id := VertexID(0); id < n; id += 13 {
			g.RemoveVertex(id)
		}
		return g
	}
	in := func(g *Graph[wideVal, wideMsg]) func(VertexID, *wideVal) addrVal {
		return func(id VertexID, v *wideVal) addrVal {
			self, ok := g.AddrOf(id)
			if !ok {
				moved.Add(1)
			}
			a := addrVal{Self: self, Next: self, Prev: self, Label: v.Label}
			if next, ok := g.AddrOf((id + 1) % n); ok {
				a.Next = next
			}
			if prev, ok := g.AddrOf((id + n - 1) % n); ok {
				a.Prev = prev
			}
			return a
		}
	}
	ring := func(ctx *Context[int64], id VertexID, v *addrVal, msgs []int64) {
		checked.Add(1)
		if ctx.Addr() != v.Self {
			moved.Add(1)
		}
		s := ctx.Superstep()
		changed := s == 0
		for _, m := range msgs {
			if m < v.Label {
				v.Label, changed = m, true
			}
		}
		if s == 1 && id%11 == 5 {
			ctx.RemoveSelf()
			return
		}
		if changed {
			ctx.SendTo(v.Next, v.Label)
			ctx.SendTo(v.Prev, v.Label)
		}
		if id%3 != 0 || s >= 4 {
			ctx.VoteToHalt()
		}
	}
	out := func(_ VertexID, v *wideVal, a *addrVal) { v.Label = a.Label }
	label := func(v *wideVal) int64 { return v.Label }
	same := func(name string, got, want *Stats, g, ref *Graph[wideVal, wideMsg]) {
		t.Helper()
		if got.Supersteps != want.Supersteps || got.Messages != want.Messages || got.DroppedMessages != want.DroppedMessages {
			t.Errorf("%s: %d supersteps, %d messages, %d dropped; clean run %d, %d, %d", name,
				got.Supersteps, got.Messages, got.DroppedMessages, want.Supersteps, want.Messages, want.DroppedMessages)
		}
		if !reflect.DeepEqual(liveState(g, label), liveState(ref, label)) {
			t.Errorf("%s: partitions differ from the clean run's", name)
		}
	}
	for _, workers := range []int{1, 4, 7} {
		for _, par := range []bool{false, true} {
			name := fmt.Sprintf("w%d-par%v", workers, par)
			checked.Store(0)
			clean := build(Config{Workers: workers, Parallel: par})
			clean.sortVertices()
			ids := make([][]VertexID, workers)
			for i, w := range clean.workers {
				ids[i] = slices.Clone(w.ids)
			}
			want, err := RunAs[addrVal, int64](clean, 8, in(clean), ring, out)
			if err != nil {
				t.Fatalf("%s: clean run: %v", name, err)
			}
			if want.Supersteps <= 6 || want.DroppedMessages == 0 || checked.Load() == 0 {
				t.Fatalf("%s: the job takes %d supersteps and drops %d messages; the test needs more than 6 and some",
					name, want.Supersteps, want.DroppedMessages)
			}
			for i, w := range clean.workers {
				if !slices.Equal(w.ids[:len(ids[i])], ids[i]) {
					t.Errorf("%s: worker %d: RunAs changed the parent's IDs", name, i)
				}
			}

			crash := build(Config{Workers: workers, Parallel: par, CheckpointEvery: 2,
				Faults: NewFaultPlan(Fault{Round: 5, Worker: workers - 1})})
			got, err := RunAs[addrVal, int64](crash, 8, in(crash), ring, out)
			if err != nil {
				t.Fatalf("%s: crashed run: %v", name, err)
			}
			if got.Recoveries != 1 {
				t.Errorf("%s: %d recoveries, want 1", name, got.Recoveries)
			}
			same(name+"/crash", got, want, crash, clean)

			dir := t.TempDir()
			store1, err := NewDirCheckpointer(dir)
			if err != nil {
				t.Fatal(err)
			}
			g1 := build(Config{Workers: workers, Parallel: par, CheckpointEvery: 2, Checkpointer: store1, MaxSupersteps: 5})
			if _, err := RunAs[addrVal, int64](g1, 8, in(g1), ring, out, WithName("pin")); err == nil {
				t.Fatalf("%s: the first process's run did not fail at its superstep limit", name)
			}
			store2, err := NewDirCheckpointer(dir)
			if err != nil {
				t.Fatal(err)
			}
			g2 := build(Config{Workers: workers, Parallel: par, CheckpointEvery: 2, Checkpointer: store2, Resume: true})
			got, err = RunAs[addrVal, int64](g2, 8, in(g2), ring, out, WithName("pin"))
			if err != nil {
				t.Fatalf("%s: resumed run: %v", name, err)
			}
			if got.CheckpointRestores != 1 {
				t.Errorf("%s: %d restores, want the resumed run to restore once", name, got.CheckpointRestores)
			}
			same(name+"/resume", got, want, g2, clean)
			if m := moved.Load(); m != 0 {
				t.Fatalf("%s: %d vertices computed at a position other than the one AddrOf gave them", name, m)
			}
		}
	}
}

// TestSendByOneKindPerSuperstep: a superstep's messages go either by ID or
// by address. A program that mixes the two panics naming the job, whether
// the mix meets in one worker's lanes or only across workers, and a
// message to a position outside its worker's partition fails the run.
func TestSendByOneKindPerSuperstep(t *testing.T) {
	mixed := func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		if ctx.Superstep() == 0 {
			if id%2 == 0 {
				ctx.Send(id, 1)
			} else {
				ctx.SendTo(ctx.Addr(), 1)
			}
		}
		ctx.VoteToHalt()
	}
	// Even IDs send by ID, odd ones by address: under modPartitioner one
	// worker holds both kinds, two workers one kind each.
	for _, workers := range []int{1, 2} {
		g := NewGraph[int64, int64](Config{Workers: workers, Partitioner: modPartitioner{}})
		for id := VertexID(0); id < 40; id++ {
			g.AddVertex(id, 0)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"mixer"`) {
					t.Errorf("w%d: mixing Send and SendTo: recovered %v, want a panic naming the job", workers, r)
				}
			}()
			g.Run(mixed, WithName("mixer"))
		}()
	}
	g := NewGraph[int64, int64](Config{Workers: 2})
	for id := VertexID(0); id < 10; id++ {
		g.AddVertex(id, 0)
	}
	_, err := g.Run(func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
		if ctx.Superstep() == 0 && id == 3 {
			ctx.SendTo(Addr(1<<32|1000), 1)
		}
		ctx.VoteToHalt()
	}, WithName("stray"))
	if err == nil || !strings.Contains(err.Error(), "position 1000 of worker 1") {
		t.Errorf("a message past the partition: %v", err)
	}
}

// TestAddrAtFormsAndInverts: a vertex's ID and Pos are all another vertex
// needs to form its address, inside a job (Context.AddrAt) and between jobs
// (Graph.AddrAt), and Graph.IDAt turns the address back into the ID. A
// second Run on a graph nothing was added to or removed from keeps every
// position, so positions one job learned still address the next job's
// vertices. The graph was filled out of ID order and lost vertices, so the
// first Run's compaction and sort decide the positions. Across workers
// {1, 4, 7}, the default hash placement and a custom partitioner.
func TestAddrAtFormsAndInverts(t *testing.T) {
	type seen struct {
		pos  uint32
		addr Addr
	}
	for _, workers := range []int{1, 4, 7} {
		for _, part := range []Partitioner{nil, modPartitioner{}} {
			name := fmt.Sprintf("w%d-%T", workers, part)
			g := NewGraph[int64, int64](Config{Workers: workers, Partitioner: part})
			for id := VertexID(200); id > 0; id-- {
				g.AddVertex(id*7, 0)
			}
			for id := VertexID(7); id <= 1400; id += 7 * 9 {
				g.RemoveVertex(id)
			}
			var mu sync.Mutex
			record := func(into map[VertexID]seen) Compute[int64, int64] {
				return func(ctx *Context[int64], id VertexID, v *int64, msgs []int64) {
					if got := ctx.AddrAt(id, ctx.Pos()); got != ctx.Addr() {
						t.Errorf("%s: vertex %d: AddrAt(id, Pos) = %#x, Addr = %#x", name, id, got, ctx.Addr())
					}
					mu.Lock()
					into[id] = seen{ctx.Pos(), ctx.Addr()}
					mu.Unlock()
					ctx.VoteToHalt()
				}
			}
			first, second := map[VertexID]seen{}, map[VertexID]seen{}
			if _, err := g.Run(record(first)); err != nil {
				t.Fatal(err)
			}
			for id, s := range first {
				if a := g.AddrAt(id, s.pos); a != s.addr {
					t.Errorf("%s: vertex %d: Graph.AddrAt = %#x, Context.Addr = %#x", name, id, a, s.addr)
				}
				if got := g.IDAt(s.addr); got != id {
					t.Errorf("%s: IDAt(%#x) = %d, want %d", name, s.addr, got, id)
				}
			}
			if _, err := g.Run(record(second)); err != nil {
				t.Fatal(err)
			}
			if len(first) != g.VertexCount() || !reflect.DeepEqual(first, second) {
				t.Errorf("%s: a second Run on the unchanged graph moved vertices (%d, %d of %d seen)", name, len(first), len(second), g.VertexCount())
			}
		}
	}
}
