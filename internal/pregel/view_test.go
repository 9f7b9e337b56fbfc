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
