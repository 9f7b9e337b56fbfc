package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
)

// This file is the independent reference for contig labeling: the
// request/respond list-ranking BPPA of the paper (§II, Figure 1; two
// supersteps and four messages per vertex per doubling round) together with
// the map-based hello matching it was written against, and the four-message
// simplified S-V round, each kept verbatim from the last commit where it was
// the product path. The product labelers in label.go must leave every vertex
// in exactly the state these do.

// arrangeSidesByRealAdj is arrangeSides as first written, over a copied
// slice of the real adjacency items.
func (v *VData) arrangeSidesByRealAdj() {
	v.HasSide = [2]bool{}
	real := v.Node.RealAdj()
	for i, a := range real {
		if i >= 2 {
			break
		}
		v.SideNbr[i] = a.Nbr
		v.HasSide[i] = true
	}
}

// TestArrangeSidesMatchesRealAdj: on random adjacency lists of 0-8 items
// with NULL holes, arrangeSides lays out the same sides as the reference,
// and allocates nothing.
func TestArrangeSidesMatchesRealAdj(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for it := 0; it < 2000; it++ {
		v := VData{Node: dbg.NewNode(0, dbg.KindKmer, dna.Seq{}, 0, nil), SideNbr: [2]pregel.VertexID{77, 78}}
		for range r.Intn(9) {
			nbr := pregel.VertexID(1 + r.Intn(20))
			if r.Intn(3) == 0 {
				nbr = dbg.NullID
			}
			v.Node.Adj = append(v.Node.Adj, dbg.Adj{Nbr: nbr, In: r.Intn(2) == 0})
		}
		want := v
		want.arrangeSidesByRealAdj()
		v.arrangeSides()
		if v.HasSide != want.HasSide || v.SideNbr != want.SideNbr {
			t.Fatalf("adj %+v: sides %v %v, reference %v %v", v.Node.Adj, v.HasSide, v.SideNbr, want.HasSide, want.SideNbr)
		}
	}
	v := VData{Node: dbg.NewNode(0, dbg.KindKmer, dna.Seq{}, 0, []dbg.Adj{{Nbr: dbg.NullID}, {Nbr: 4}, {Nbr: 9}, {Nbr: 2}})}
	if allocs := testing.AllocsPerRun(100, v.arrangeSides); allocs != 0 {
		t.Errorf("arrangeSides allocates %.0f times per vertex, want 0", allocs)
	}
}

// helloPhaseOracle is the map-based hello setup (supersteps 0 and 1).
func helloPhaseOracle(ctx *pregel.Context[Msg], id pregel.VertexID, v *VData, msgs []Msg) (done bool) {
	switch ctx.Superstep() {
	case 0:
		v.Ambig = v.Node.Type() == dbg.TypeManyAny
		v.Labeled, v.Cycle = false, false
		v.Done = [2]bool{}
		v.TipProbed = false
		v.LastActive = -1
		v.arrangeSidesByRealAdj()
		if v.Ambig {
			for _, a := range v.Node.RealAdj() {
				ctx.Send(a.Nbr, Msg{Kind: MsgHello, ID: id, Flag: true})
			}
			ctx.VoteToHalt()
			return true
		}
		for i := 0; i < 2; i++ {
			if v.HasSide[i] {
				ctx.Send(v.SideNbr[i], Msg{Kind: MsgHello, ID: id, Side: uint8(i)})
			}
		}
		return true
	case 1:
		ambigFrom := map[pregel.VertexID]bool{}
		helloSides := map[pregel.VertexID][]uint8{}
		for _, m := range msgs {
			if m.Kind != MsgHello {
				continue
			}
			if m.Flag {
				ambigFrom[m.ID] = true
			}
			helloSides[m.ID] = append(helloSides[m.ID], m.Side)
		}
		v.NbrAmbig = 0
		for i, a := range v.Node.Items() {
			if a.Nbr != dbg.NullID && ambigFrom[a.Nbr] {
				v.NbrAmbig |= 1 << i
			}
		}
		if v.Ambig {
			ctx.VoteToHalt()
			return true
		}
		consumed := map[pregel.VertexID]int{}
		for i := 0; i < 2; i++ {
			if !v.HasSide[i] || ambigFrom[v.SideNbr[i]] {
				v.P[i] = dbg.FlipID(id)
				v.Done[i] = true
				continue
			}
			nbr := v.SideNbr[i]
			sides := helloSides[nbr]
			j := consumed[nbr]
			consumed[nbr]++
			senderSide := uint8(0)
			if j < len(sides) {
				senderSide = sides[j]
			}
			v.P[i] = nbr
			v.PSide[i] = 1 - senderSide
		}
		if v.Done[0] && v.Done[1] {
			v.finishLabel()
			ctx.VoteToHalt()
			return true
		}
		return false
	}
	return false
}

// lrComputeOracle is the request/respond list-ranking labeler: even
// supersteps apply responses and issue the next requests; odd supersteps
// answer requests with the responder's away-side pointer.
func lrComputeOracle(ctx *pregel.Context[Msg], id pregel.VertexID, v *VData, msgs []Msg) {
	s := ctx.Superstep()
	if s <= 1 {
		if helloPhaseOracle(ctx, id, v, msgs) {
			return
		}
		ctx.AggSum(aggUndone, v.undoneSides())
		return
	}
	if v.Ambig {
		ctx.VoteToHalt()
		return
	}
	if s%2 == 0 {
		if v.Labeled || v.Cycle {
			ctx.VoteToHalt()
			return
		}
		for _, m := range msgs {
			if m.Kind != MsgResp {
				continue
			}
			v.P[m.Side] = m.ID
			v.PSide[m.Side] = m.Side2
			if dbg.IsFlipped(m.ID) {
				v.Done[m.Side] = true
			}
		}
		if v.Done[0] && v.Done[1] {
			v.finishLabel()
			ctx.VoteToHalt()
			return
		}
		cur := ctx.PrevAggSum(aggUndone)
		if s >= 6 && v.LastActive >= 0 && cur > 0 && cur == v.LastActive {
			v.Cycle = true
			ctx.VoteToHalt()
			return
		}
		v.LastActive = cur
		ctx.AggSum(aggUndone, v.undoneSides())
		for i := uint8(0); i < 2; i++ {
			if !v.Done[i] {
				ctx.Send(v.P[i], Msg{Kind: MsgReq, ID: id, Side: i, Side2: v.PSide[i]})
			}
		}
		return
	}
	for _, m := range msgs {
		if m.Kind == MsgReq {
			ctx.Send(m.ID, Msg{
				Kind:  MsgResp,
				Side:  m.Side,
				ID:    v.P[m.Side2],
				Side2: v.PSide[m.Side2],
			})
		}
	}
	if v.Labeled || v.Cycle {
		ctx.VoteToHalt()
		return
	}
	ctx.AggSum(aggUndone, v.undoneSides())
}

// oracleVData is VData with the S-V state the four-message oracle keeps in
// the vertex, as VData itself did while that round was the product path.
type oracleVData struct {
	VData
	D, DD pregel.VertexID
}

// toOracle copies g's vertices into a graph of oracleVData, same
// configuration and clock.
func toOracle(g *Graph) *pregel.Graph[oracleVData, Msg] {
	return pregel.Convert[oracleVData, Msg](g, g.Config(),
		func(id pregel.VertexID, v VData, emit func(pregel.VertexID, oracleVData)) {
			emit(id, oracleVData{VData: v})
		})
}

// svRoundOracle is the simplified S-V round in its four-message form: every
// vertex queries its parent and broadcasts its D to its side neighbours in
// every round, whether or not anything changed.
func svRoundOracle(ctx *pregel.Context[Msg], id pregel.VertexID, v *oracleVData, msgs []Msg, phase int, first bool) {
	switch phase {
	case 0:
		if first {
			v.D = id
		} else {
			if !ctx.PrevAggOr(aggSVChanged) {
				v.Label = v.D
				v.Labeled = true
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				if m.Kind == MsgSVHook && m.ID < v.D {
					v.D = m.ID
					ctx.AggOr(aggSVChanged, true)
				}
			}
		}
		ctx.Send(v.D, Msg{Kind: MsgSVQuery, ID: id})
	case 1:
		for _, m := range msgs {
			if m.Kind == MsgSVQuery {
				ctx.Send(m.ID, Msg{Kind: MsgSVReply, ID: v.D})
			}
		}
	case 2:
		for _, m := range msgs {
			if m.Kind == MsgSVReply {
				v.DD = m.ID
			}
		}
		for i := 0; i < 2; i++ {
			if v.HasSide[i] && !v.Done[i] {
				ctx.Send(v.SideNbr[i], Msg{Kind: MsgSVNbr, ID: v.D})
			}
		}
	case 3:
		best := v.D
		for _, m := range msgs {
			if m.Kind == MsgSVNbr && m.ID < best {
				best = m.ID
			}
		}
		if v.DD == v.D && best < v.D {
			ctx.Send(v.D, Msg{Kind: MsgSVHook, ID: best})
			ctx.AggOr(aggSVChanged, true)
		}
		if v.DD != v.D {
			v.D = v.DD
			ctx.AggOr(aggSVChanged, true)
		}
	}
}

// svLabelComputeOracle is the pure-S-V labeler as one job over Msg: the
// hello supersteps, then svRoundOracle from superstep offset.
func svLabelComputeOracle(offset int) pregel.Compute[oracleVData, Msg] {
	return func(ctx *pregel.Context[Msg], id pregel.VertexID, v *oracleVData, msgs []Msg) {
		s := ctx.Superstep()
		if s <= 1 {
			helloPhaseOracle(ctx, id, &v.VData, msgs)
			return
		}
		if v.Ambig || v.Labeled {
			ctx.VoteToHalt()
			return
		}
		svRoundOracle(ctx, id, v, msgs, (s-offset)%4, s == offset)
	}
}

// svCycleComputeOracle is the S-V cycle fallback over svRoundOracle.
func svCycleComputeOracle(ctx *pregel.Context[Msg], id pregel.VertexID, v *oracleVData, msgs []Msg) {
	if !v.Cycle || v.Labeled {
		ctx.VoteToHalt()
		return
	}
	svRoundOracle(ctx, id, v, msgs, ctx.Superstep()%4, ctx.Superstep() == 0)
}

// labelContigsOracle is LabelContigs(g, LabelerLR) over lrComputeOracle and
// the four-message S-V cycle fallback, which runs on an oracleVData copy of
// g and writes every vertex back.
func labelContigsOracle(g *Graph) (*LabelStats, error) {
	start := time.Now()
	sim0 := g.Clock().Seconds()
	ls := &LabelStats{Algorithm: LabelerLR}
	st, err := g.Run(lrComputeOracle, pregel.WithName("contig-label-lr"))
	if err != nil {
		return nil, err
	}
	ls.Supersteps = st.Supersteps
	ls.Messages = st.Messages
	g.ForEach(func(id pregel.VertexID, v *VData) {
		if v.Cycle {
			ls.CycleVertices++
		}
	})
	if ls.CycleVertices > 0 {
		og := toOracle(g)
		st2, err := og.Run(svCycleComputeOracle, pregel.WithName("contig-label-cycle-sv"))
		if err != nil {
			return nil, err
		}
		og.ForEach(func(id pregel.VertexID, v *oracleVData) { g.SetValue(id, v.VData) })
		ls.Supersteps += st2.Supersteps
		ls.Messages += st2.Messages
	}
	ls.WallSeconds = time.Since(start).Seconds()
	ls.SimSeconds = g.Clock().Seconds() - sim0
	return ls, nil
}

// labelFixture builds one input graph under the given engine configuration.
type labelFixture func(t testing.TB, cfg pregel.Config) *Graph

// cloneGraph deep-copies g's vertices into a fresh graph of the same
// configuration, so both labelers start from the same state.
func cloneGraph(g *Graph) *Graph {
	c := pregel.NewGraph[VData, Msg](g.Config())
	g.ForEach(func(id pregel.VertexID, v *VData) {
		d := *v
		if v.Node.Explicit != nil {
			// slices.Clone keeps an empty slice non-nil, as labelStates'
			// DeepEqual requires of a copy taken after labeling.
			ext := *v.Node.Explicit
			ext.Adj = slices.Clone(ext.Adj)
			d.Node.Explicit = &ext
		}
		c.AddVertex(id, d)
	})
	return c
}

// labelStates snapshots every vertex for comparison, through vdata. The
// stall detector's LastActive is private scratch (the LR oracle refreshes it
// every second superstep) and not part of the labeling result.
func labelStates[V any](g *pregel.Graph[V, Msg], vdata func(*V) *VData) map[pregel.VertexID]VData {
	out := map[pregel.VertexID]VData{}
	g.ForEach(func(id pregel.VertexID, v *V) {
		c := *vdata(v)
		c.LastActive = 0
		out[id] = c
	})
	return out
}

func ownVData(v *VData) *VData { return v }

// checkPushMatchesOracle labels the fixture and a copy of it, one with the
// product labeler and one with the oracle, and requires identical vertex
// state (P, PSide, Done, Label, Labeled, Cycle, NbrAmbig and everything
// else in VData), identical cycle counts, and the message and superstep
// savings the push round exists for. It returns the oracle's stats.
func checkPushMatchesOracle(t testing.TB, name string, build labelFixture, cfg pregel.Config) (ref *LabelStats) {
	t.Helper()
	gp := build(t, cfg)
	gr := cloneGraph(gp)
	push, err := LabelContigs(gp, LabelerLR)
	if err != nil {
		t.Fatalf("%s: product labeler: %v", name, err)
	}
	ref, err = labelContigsOracle(gr)
	if err != nil {
		t.Fatalf("%s: oracle labeler: %v", name, err)
	}
	if push.CycleVertices != ref.CycleVertices {
		t.Errorf("%s: CycleVertices = %d, oracle %d", name, push.CycleVertices, ref.CycleVertices)
	}
	if ref.CycleVertices == 0 {
		// Both counts then cover the list-ranking job alone. Every undone
		// side costs the oracle a request and a response per round, the
		// product one push; a round is two oracle supersteps, one here.
		hello := int64(0)
		gp.ForEach(func(id pregel.VertexID, v *VData) {
			if v.Ambig {
				hello += int64(v.Node.RealDegree())
			} else {
				hello += int64(min(2, v.Node.RealDegree()))
			}
		})
		if want := hello + (ref.Messages-hello)/2; push.Messages != want || (ref.Messages-hello)%2 != 0 {
			t.Errorf("%s: %d messages, want %d hello + half of the oracle's %d request/response",
				name, push.Messages, hello, ref.Messages-hello)
		}
		if limit := 2 + (ref.Supersteps-2+1)/2 + 1; push.Supersteps > limit {
			t.Errorf("%s: %d supersteps, oracle %d allows at most %d", name, push.Supersteps, ref.Supersteps, limit)
		}
	} else if push.Messages >= ref.Messages || push.Supersteps > ref.Supersteps {
		t.Errorf("%s: %d messages in %d supersteps, oracle %d in %d", name,
			push.Messages, push.Supersteps, ref.Messages, ref.Supersteps)
	}
	got, want := labelStates(gp, ownVData), labelStates(gr, ownVData)
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, oracle %d", name, len(got), len(want))
	}
	bad := 0
	for id, w := range want {
		g := got[id]
		if reflect.DeepEqual(g, w) {
			continue
		}
		if bad++; bad <= 3 {
			t.Errorf("%s: vertex %#x differs\n product P=%#x PSide=%v Done=%v Label=%#x Labeled=%v Cycle=%v NbrAmbig=%#b\n oracle  P=%#x PSide=%v Done=%v Label=%#x Labeled=%v Cycle=%v NbrAmbig=%#b",
				name, uint64(id),
				g.P, g.PSide, g.Done, uint64(g.Label), g.Labeled, g.Cycle, g.NbrAmbig,
				w.P, w.PSide, w.Done, uint64(w.Label), w.Labeled, w.Cycle, w.NbrAmbig)
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d vertices differ from the oracle", name, bad, len(want))
	}
	return ref
}

// oracleConfigs is the engine matrix every fixture runs under.
func oracleConfigs() []pregel.Config {
	var out []pregel.Config
	for _, w := range []int{1, 4, 7} {
		for _, par := range []bool{false, true} {
			out = append(out, pregel.Config{Workers: w, Parallel: par})
		}
	}
	return out
}

// segSpec is a hand-built or random segment graph: node i has vertex ID
// ids[i] and adjacency nodes[i].Adj.
type segSpec struct {
	ids   []pregel.VertexID
	nodes []dbg.Node
}

func (s *segSpec) fixture() labelFixture {
	return func(t testing.TB, cfg pregel.Config) *Graph {
		g := pregel.NewGraph[VData, Msg](cfg)
		for i, id := range s.ids {
			g.AddVertex(id, VData{Node: s.nodes[i]})
		}
		return g
	}
}

// segEdge joins end ea of node a to end eb of node b; end 0 is the in-end
// of the stored orientation, end 1 the out-end. a == b with ea != eb is a
// self-loop (a homopolymer k-mer), a == b with ea == eb a reverse-complement
// hairpin (a palindromic (k+1)-mer): one edge, one adjacency item.
type segEdge struct{ a, ea, b, eb int }

// newSegSpec lays the edges out as adjacency items. Nodes listed in hubs
// may carry any number of edges per end and are always k-mer nodes; every
// other node must have at most one edge per end and is a k-mer node (real
// items only, in edge order, randomly Property-1 flipped) or a contig node
// (exactly [in, out], NULL for dead ends) at random.
func newSegSpec(r *rand.Rand, n int, hubs map[int]bool, edges []segEdge) *segSpec {
	s := &segSpec{ids: make([]pregel.VertexID, n), nodes: make([]dbg.Node, n)}
	used := map[pregel.VertexID]bool{}
	for i := range s.ids {
		for {
			id := dbg.KmerID(0) + pregel.VertexID(r.Intn(1<<20))
			if r.Intn(2) == 0 {
				id = dbg.ContigID(r.Intn(5), uint32(r.Intn(1<<10)+1))
			}
			if !used[id] {
				used[id] = true
				s.ids[i] = id
				break
			}
		}
	}
	item := func(to, eSelf, eNbr int) dbg.Adj {
		p := dbg.H
		if eSelf != eNbr {
			p = dbg.L
		}
		return dbg.Adj{Nbr: s.ids[to], In: eSelf == 0, PSelf: dbg.L, PNbr: p, Cov: uint32(1 + r.Intn(9)), NbrLen: 5}
	}
	perEnd := make([][2][]dbg.Adj, n)
	order := make([][]dbg.Adj, n)
	add := func(i, e int, a dbg.Adj) {
		perEnd[i][e] = append(perEnd[i][e], a)
		order[i] = append(order[i], a)
	}
	for _, e := range edges {
		add(e.a, e.ea, item(e.b, e.ea, e.eb))
		if e.a != e.b || e.ea != e.eb {
			add(e.b, e.eb, item(e.a, e.eb, e.ea))
		}
	}
	for i := range s.nodes {
		if !hubs[i] && (len(perEnd[i][0]) > 1 || len(perEnd[i][1]) > 1) {
			panic(fmt.Sprintf("segSpec: non-hub node %d has two edges on one end", i))
		}
		if !hubs[i] && r.Intn(2) == 0 {
			adj := []dbg.Adj{{Nbr: dbg.NullID, In: true, PSelf: dbg.L}, {Nbr: dbg.NullID, In: false, PSelf: dbg.L}}
			for e := 0; e < 2; e++ {
				if len(perEnd[i][e]) == 1 {
					adj[e] = perEnd[i][e][0]
				}
			}
			s.nodes[i] = dbg.NewNode(0, dbg.KindContig, dna.Seq{}, 1, adj)
			continue
		}
		adj := order[i]
		for j := range adj {
			if r.Intn(2) == 0 {
				adj[j] = adj[j].Flip()
			}
		}
		s.nodes[i] = dbg.NewNode(0, dbg.KindKmer, dna.Seq{}, 1, adj)
	}
	return s
}

// randomSegSpec draws a graph of n nodes whose free ends are paired at
// random: paths and cycles of every length with reverse-complement joins,
// self-loops, 2-cycles (likely for small n), hairpins, dead ends, and ends
// attached to ambiguous hubs.
func randomSegSpec(r *rand.Rand, n int) *segSpec {
	hubs := map[int]bool{}
	var hubList []int
	type end struct{ node, e int }
	var free []end
	for i := 0; i < n; i++ {
		if n > 3 && r.Intn(8) == 0 {
			hubs[i] = true
			hubList = append(hubList, i)
			continue
		}
		free = append(free, end{i, 0}, end{i, 1})
	}
	r.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	var edges []segEdge
	for len(free) > 0 {
		x := free[0]
		free = free[1:]
		switch p := r.Intn(20); {
		case p < 3:
			// dead end
		case p < 4:
			edges = append(edges, segEdge{x.node, x.e, x.node, x.e})
		case p < 7 && len(hubList) > 0:
			edges = append(edges, segEdge{x.node, x.e, hubList[r.Intn(len(hubList))], r.Intn(2)})
		case len(free) > 0:
			y := free[0]
			free = free[1:]
			edges = append(edges, segEdge{x.node, x.e, y.node, y.e})
		}
	}
	for i, h := range hubList {
		if i > 0 && r.Intn(2) == 0 {
			edges = append(edges, segEdge{h, r.Intn(2), hubList[r.Intn(i)], r.Intn(2)})
		}
	}
	return newSegSpec(r, n, hubs, edges)
}

// namedSegSpecs are the shapes the labeler's side bookkeeping is delicate
// on, each small enough to trace by hand.
func namedSegSpecs() map[string]*segSpec {
	r := seededRand(5)
	chain := func(n int, closed bool) []segEdge {
		var es []segEdge
		in := make([]int, n) // end of node i that faces node i-1
		for i := range in {
			in[i] = r.Intn(2)
		}
		for i := 0; i+1 < n; i++ {
			es = append(es, segEdge{i, 1 - in[i], i + 1, in[i+1]})
		}
		if closed {
			es = append(es, segEdge{n - 1, 1 - in[n-1], 0, in[0]})
		}
		return es
	}
	hub3 := []segEdge{{0, 1, 1, 0}, {1, 1, 6, 0}, {2, 0, 3, 1}, {3, 0, 6, 1}, {4, 1, 6, 1}, {5, 0, 4, 0}}
	return map[string]*segSpec{
		"isolated":         newSegSpec(r, 1, nil, nil),
		"pair":             newSegSpec(r, 2, nil, chain(2, false)),
		"path5":            newSegSpec(r, 5, nil, []segEdge{{0, 1, 1, 0}, {1, 1, 2, 0}, {2, 1, 3, 0}, {3, 1, 4, 0}}),
		"path-rc-joins":    newSegSpec(r, 4, nil, []segEdge{{0, 1, 1, 1}, {1, 0, 2, 0}, {2, 1, 3, 1}}),
		"path67":           newSegSpec(r, 67, nil, chain(67, false)),
		"self-loop":        newSegSpec(r, 1, nil, []segEdge{{0, 1, 0, 0}}),
		"two-cycle":        newSegSpec(r, 2, nil, []segEdge{{0, 1, 1, 0}, {1, 1, 0, 0}}),
		"two-cycle-rc":     newSegSpec(r, 2, nil, []segEdge{{0, 1, 1, 1}, {1, 0, 0, 0}}),
		"cycle3":           newSegSpec(r, 3, nil, chain(3, true)),
		"cycle33":          newSegSpec(r, 33, nil, chain(33, true)),
		"hairpin-end":      newSegSpec(r, 3, nil, []segEdge{{0, 1, 1, 0}, {1, 1, 2, 0}, {2, 1, 2, 1}}),
		"hairpin-both":     newSegSpec(r, 2, nil, []segEdge{{0, 0, 0, 0}, {0, 1, 1, 0}, {1, 1, 1, 1}}),
		"hairpin-single":   newSegSpec(r, 1, nil, []segEdge{{0, 0, 0, 0}, {0, 1, 0, 1}}),
		"hairpin-dead-end": newSegSpec(r, 1, nil, []segEdge{{0, 1, 0, 1}}),
		"hub-three-arms":   newSegSpec(r, 7, map[int]bool{6: true}, hub3),
		"hub-to-hub-path": newSegSpec(r, 5, map[int]bool{0: true, 4: true},
			[]segEdge{{0, 1, 1, 0}, {1, 1, 2, 1}, {2, 0, 3, 0}, {3, 1, 4, 0}, {0, 0, 4, 1}, {0, 1, 4, 1}}),
		"hub-double-edge": newSegSpec(r, 3, map[int]bool{2: true},
			[]segEdge{{0, 1, 2, 0}, {0, 0, 2, 1}, {1, 1, 2, 1}, {1, 0, 2, 0}}),
	}
}

// randomSmallKReads returns short reads over a skewed alphabet: at k = 3 or
// 5 the DBG is dense in homopolymer self-loops, palindromic (k+1)-mers,
// 2-cycles and ambiguous vertices.
func randomSmallKReads(r *rand.Rand) ([]string, int) {
	k := 3 + 2*r.Intn(2)
	reads := make([]string, 1+r.Intn(6))
	for i := range reads {
		b := make([]byte, k+1+r.Intn(30))
		for j := range b {
			if j > 0 && r.Intn(4) == 0 {
				b[j] = b[j-1]
			} else {
				b[j] = "ACGT"[r.Intn(4)]
			}
		}
		reads[i] = string(b)
	}
	return reads, k
}

// dbgFixture builds the k-mer segment graph of the reads.
func dbgFixture(reads []string, k int, theta uint32) labelFixture {
	return func(t testing.TB, cfg pregel.Config) *Graph {
		t.Helper()
		clock := pregel.NewSimClock(pregel.DefaultCost())
		b, err := dbg.BuildDBG(clock, cfg, pregel.ShardSlice(reads, cfg.Workers), k, theta)
		if err != nil {
			t.Fatal(err)
		}
		return NewSegmentGraph(b, cfg, k)
	}
}

// mixedFixture runs ①②③④⑤ with the product labeler and returns the
// error-corrected mixed k-mer/contig graph the second labeling round sees.
func mixedFixture(reads []string, k int, theta uint32) labelFixture {
	first := dbgFixture(reads, k, theta)
	return func(t testing.TB, cfg pregel.Config) *Graph {
		t.Helper()
		g := first(t, cfg)
		if _, err := LabelContigs(g, LabelerLR); err != nil {
			t.Fatal(err)
		}
		merged, err := MergeContigs(g, k, 80)
		if err != nil {
			t.Fatal(err)
		}
		bub, err := FilterBubbles(g.Clock(), cfg.Workers, merged.Contigs, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		g2 := BuildMixedGraph(g, bub.Contigs, cfg, g.Clock())
		if _, err := LinkContigs(g2); err != nil {
			t.Fatal(err)
		}
		if _, err := RemoveTips(g2, k, 80); err != nil {
			t.Fatal(err)
		}
		return g2
	}
}

// goldenReads is the golden dataset of cmd/ppa-assembler's golden tests.
func goldenReads(t testing.TB) []string {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{
		Name: "golden", Length: 40_000, Repeats: 3, RepeatLen: 300, Seed: 1009,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 20, SubRate: 0.001, Seed: 1013},
		InsertMean: 650, InsertSD: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	return readsim.Interleave(pairs)
}

func TestPushLRMatchesRequestRespond(t *testing.T) {
	// The random generators must keep reaching the stall detector and the
	// plain path case, or the comparison below proves less than it says.
	withCycles, cycleFree := 0, 0
	check := func(name string, build labelFixture, cfg pregel.Config) {
		t.Helper()
		if ref := checkPushMatchesOracle(t, name, build, cfg); ref.CycleVertices > 0 {
			withCycles++
		} else {
			cycleFree++
		}
	}
	defer func() {
		t.Logf("fixtures: %d with cycles, %d cycle-free", withCycles, cycleFree)
		if withCycles < 20 || cycleFree < 20 {
			t.Errorf("fixtures with cycles %d, without %d: want at least 20 of each", withCycles, cycleFree)
		}
	}()
	for _, cfg := range oracleConfigs() {
		cfgName := fmt.Sprintf("w%d-par%v", cfg.Workers, cfg.Parallel)
		for name, spec := range namedSegSpecs() {
			check(cfgName+"/"+name, spec.fixture(), cfg)
		}
		r := seededRand(int64(31 + cfg.Workers))
		for i := 0; i < 60; i++ {
			n := 1 + r.Intn(6)
			if i%3 == 0 {
				n = 1 + r.Intn(120)
			}
			check(fmt.Sprintf("%s/random-seg-%d", cfgName, i), randomSegSpec(r, n).fixture(), cfg)
		}
		for i := 0; i < 40; i++ {
			reads, k := randomSmallKReads(r)
			check(fmt.Sprintf("%s/small-k-%d %q", cfgName, i, reads), dbgFixture(reads, k, 0), cfg)
		}
	}
	reads := goldenReads(t)
	for _, cfg := range oracleConfigs() {
		cfgName := fmt.Sprintf("w%d-par%v", cfg.Workers, cfg.Parallel)
		if cfg.Workers == 4 {
			// theta 0 keeps every sequencing error: tips and bubbles, so
			// many contig ends sit next to ambiguous vertices.
			check(cfgName+"/golden-round1-raw", dbgFixture(reads, 21, 0), cfg)
		}
		check(cfgName+"/golden-round1", dbgFixture(reads, 21, 1), cfg)
		check(cfgName+"/golden-round2", mixedFixture(reads, 21, 1), cfg)
	}
}

func FuzzPushLRMatchesRequestRespond(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(0x1f3))
	f.Add(int64(99), uint16(0x7ff))
	f.Add(int64(5), uint16(0x00d))
	f.Fuzz(func(t *testing.T, seed int64, bits uint16) {
		cfg := pregel.Config{Workers: []int{1, 4, 7}[int(bits&3)%3], Parallel: bits>>2&1 == 1}
		r := seededRand(seed)
		if bits>>3&1 == 1 {
			reads, k := randomSmallKReads(r)
			checkPushMatchesOracle(t, fmt.Sprintf("small-k %q", reads), dbgFixture(reads, k, 0), cfg)
			return
		}
		n := 1 + int(bits>>4)%96
		checkPushMatchesOracle(t, fmt.Sprintf("random-seg n=%d", n), randomSegSpec(r, n).fixture(), cfg)
	})
}

// dTrace records every S-V vertex's D at the end of every round, one slice
// per worker so that parallel workers never append to the same one. A
// worker runs its vertices in ID order, so two runs over the same
// partitioning record the same (round, vertex) sequence.
type dTrace struct{ byWorker [][]dEntry }

type dEntry struct {
	round int
	id, d pregel.VertexID
}

func newDTrace(workers int) *dTrace { return &dTrace{byWorker: make([][]dEntry, workers)} }

// traceD runs compute and then, at the last superstep of every round of an
// S-V job whose rounds take period supersteps from offset on, records D
// (read through d) for the vertices inSV accepts, stamped with the round.
func traceD[V, M any](tr *dTrace, compute pregel.Compute[V, M], offset, period int, inSV func(*V) bool, d func(*V) pregel.VertexID) pregel.Compute[V, M] {
	return func(ctx *pregel.Context[M], id pregel.VertexID, v *V, msgs []M) {
		compute(ctx, id, v, msgs)
		if s := ctx.Superstep() - offset; s >= 0 && s%period == period-1 && inSV(v) {
			w := ctx.Worker()
			tr.byWorker[w] = append(tr.byWorker[w], dEntry{s / period, id, d(v)})
		}
	}
}

// svProduct runs the product S-V job of a labeler on g, recording D into
// tr: for the pure-S-V labeler the hello job and then, if any vertex is
// left unlabeled, S-V (as LabelContigs runs them); for LR the cycle
// fallback. It returns the supersteps of the S-V job (zero if it did not
// run), and the supersteps and messages of both jobs together.
func svProduct(g *Graph, algo Labeler, tr *dTrace) (svSteps, supersteps int, msgs int64, err error) {
	traced := traceD(tr, svCompute, 0, 3, func(v *svVertex) bool { return !v.Idle },
		func(v *svVertex) pregel.VertexID { return v.D })
	if algo == LabelerLR {
		st, err := svRun(g, "", svCycleMember, traced)
		return st.Supersteps, st.Supersteps, st.Messages, err
	}
	st, err := pregel.WithMessages[labelMsg](g, labelMsgWireBytes).Run(helloCompute)
	if err != nil {
		return 0, 0, 0, err
	}
	pending := false
	g.ForEach(func(id pregel.VertexID, v *VData) { pending = pending || svLabelMember(v) })
	if !pending {
		return 0, st.Supersteps, st.Messages, nil
	}
	st2, err := svRun(g, "", svLabelMember, traced)
	return st2.Supersteps, st.Supersteps + st2.Supersteps, st.Messages + st2.Messages, err
}

// svOracleHellos is the supersteps of the hello phase in the pure-S-V
// oracle job, which runs the hellos and S-V as one job.
const svOracleHellos = 2

// svOracle runs the four-message oracle job of a labeler on an oracleVData
// copy of g over Msg, recording D into tr: for the pure-S-V labeler the
// hellos and S-V as one job, for LR the cycle fallback.
func svOracle(g *pregel.Graph[oracleVData, Msg], algo Labeler, tr *dTrace) (*pregel.Stats, error) {
	d := func(v *oracleVData) pregel.VertexID { return v.D }
	if algo == LabelerSV {
		return g.Run(traceD(tr, svLabelComputeOracle(svOracleHellos), svOracleHellos, 4,
			func(v *oracleVData) bool { return !v.Ambig && !v.Labeled }, d))
	}
	return g.Run(traceD(tr, svCycleComputeOracle, 0, 4, func(v *oracleVData) bool { return v.Cycle && !v.Labeled }, d))
}

// checkSVMatchesOracle labels g (unlabeled) and a copy of it, one with the
// product S-V round over svVertex values and (ID, address) messages and one
// with the four-message oracle over oracleVData and Msg, and compares them
// round by round: the product's round r ends at its superstep 3r+2, the
// oracle's at 4r+3, and every vertex must hold the same D after every
// round. R rounds take the product 3R+1 supersteps and the oracle 4R+1
// (the last one finds nothing changed), the final VData must be the same,
// and the product must send no more messages, and fewer whenever any vertex
// took part in S-V — each takes part from round 1, where every vertex is a
// root and the oracle's roots query and answer themselves. For LabelerLR
// the product list ranking runs first and only a surviving cycle is
// compared. It reports whether any vertex took part in S-V.
func checkSVMatchesOracle(t testing.TB, name string, gp *Graph, algo Labeler) (ranSV bool) {
	t.Helper()
	if algo == LabelerLR {
		if _, err := pregel.WithMessages[labelMsg](gp, labelMsgWireBytes).Run(lrCompute); err != nil {
			t.Fatalf("%s: list ranking: %v", name, err)
		}
		cycles := false
		gp.ForEach(func(id pregel.VertexID, v *VData) { cycles = cycles || v.Cycle })
		if !cycles {
			return false
		}
	}
	gr := toOracle(cloneGraph(gp))
	tp, tr := newDTrace(gp.Workers()), newDTrace(gp.Workers())
	svSteps, supersteps, msgs, err := svProduct(gp, algo, tp)
	if err != nil {
		t.Fatalf("%s: product S-V: %v", name, err)
	}
	ref, err := svOracle(gr, algo, tr)
	if err != nil {
		t.Fatalf("%s: oracle S-V: %v", name, err)
	}
	ranSV = slices.ContainsFunc(tr.byWorker, func(es []dEntry) bool { return len(es) > 0 })
	refSV := ref.Supersteps
	if algo == LabelerSV {
		refSV -= svOracleHellos
		if supersteps-svSteps != svOracleHellos {
			t.Errorf("%s: hello job took %d supersteps, want %d", name, supersteps-svSteps, svOracleHellos)
		}
	}
	switch {
	case refSV == 0:
		if svSteps != 0 {
			t.Errorf("%s: S-V took %d supersteps where the oracle ran none", name, svSteps)
		}
	case (refSV-1)%4 != 0:
		t.Errorf("%s: the oracle's S-V took %d supersteps, not 4R+1", name, refSV)
	case svSteps != 3*(refSV-1)/4+1:
		t.Errorf("%s: S-V took %d supersteps over %d rounds, want 3R+1 = %d (oracle %d = 4R+1)",
			name, svSteps, (refSV-1)/4, 3*(refSV-1)/4+1, refSV)
	}
	if msgs > ref.Messages || ranSV && msgs == ref.Messages {
		t.Errorf("%s: %d messages, oracle %d (S-V ran: %v)", name, msgs, ref.Messages, ranSV)
	}
	bad := 0
	for w, want := range tr.byWorker {
		if diff := firstDiff(tp.byWorker[w], want); diff != "" {
			bad++
			t.Errorf("%s: worker %d per-round D records (round, vertex, D) differ from the oracle's: %s", name, w, diff)
		}
	}
	sGot := labelStates(gp, ownVData)
	sRef := labelStates(gr, func(v *oracleVData) *VData { return &v.VData })
	for id, w := range sRef {
		if g := sGot[id]; !reflect.DeepEqual(g, w) {
			if bad++; bad <= 3 {
				t.Errorf("%s: vertex %#x differs\n product Label=%#x Labeled=%v\n oracle  Label=%#x Labeled=%v",
					name, uint64(id), uint64(g.Label), g.Labeled, uint64(w.Label), w.Labeled)
			}
		}
	}
	if bad > 0 || len(sGot) != len(sRef) {
		t.Fatalf("%s: %d records or vertices differ from the oracle (%d vs %d vertices)", name, bad, len(sGot), len(sRef))
	}
	return ranSV
}

func TestSVMatchesOracle(t *testing.T) {
	// Both labelers run over every fixture: S-V directly, LR through its
	// cycle fallback wherever list ranking leaves a cycle. The generators
	// must keep reaching both, or the comparison proves less than it says.
	ran := map[Labeler]int{}
	check := func(name string, build labelFixture, cfg pregel.Config) {
		t.Helper()
		g := build(t, cfg)
		for _, algo := range []Labeler{LabelerSV, LabelerLR} {
			if checkSVMatchesOracle(t, name+"/"+algo.String(), cloneGraph(g), algo) {
				ran[algo]++
			}
		}
	}
	defer func() {
		t.Logf("fixtures that ran S-V: %v", ran)
		if ran[LabelerSV] < 100 || ran[LabelerLR] < 20 {
			t.Errorf("S-V ran on %d S-V and %d LR fixtures: want at least 100 and 20", ran[LabelerSV], ran[LabelerLR])
		}
	}()
	for _, cfg := range oracleConfigs() {
		cfgName := fmt.Sprintf("w%d-par%v", cfg.Workers, cfg.Parallel)
		for name, spec := range namedSegSpecs() {
			check(cfgName+"/"+name, spec.fixture(), cfg)
		}
		r := seededRand(int64(47 + cfg.Workers))
		for i := 0; i < 40; i++ {
			n := 1 + r.Intn(6)
			if i%3 == 0 {
				n = 1 + r.Intn(120)
			}
			check(fmt.Sprintf("%s/random-seg-%d", cfgName, i), randomSegSpec(r, n).fixture(), cfg)
		}
		for i := 0; i < 25; i++ {
			reads, k := randomSmallKReads(r)
			check(fmt.Sprintf("%s/small-k-%d %q", cfgName, i, reads), dbgFixture(reads, k, 0), cfg)
		}
	}
	reads := goldenReads(t)
	for _, cfg := range oracleConfigs() {
		cfgName := fmt.Sprintf("w%d-par%v", cfg.Workers, cfg.Parallel)
		if cfg.Workers == 4 {
			// The k-mer graph's S-V job (87 supersteps) is the costly
			// one: on all six configurations it would take 6.4 s instead
			// of 2.5 s, so it runs on the two four-worker schedules.
			check(cfgName+"/golden-round1", dbgFixture(reads, 21, 1), cfg)
		}
		check(cfgName+"/golden-round2", mixedFixture(reads, 21, 1), cfg)
	}
}

func FuzzSVMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(0x1f3))
	f.Add(int64(99), uint16(0x7ff))
	f.Add(int64(5), uint16(0x01d))
	f.Fuzz(func(t *testing.T, seed int64, bits uint16) {
		cfg := pregel.Config{Workers: []int{1, 4, 7}[int(bits&3)%3], Parallel: bits>>2&1 == 1}
		algo := Labeler(bits >> 4 & 1)
		r := seededRand(seed)
		if bits>>3&1 == 1 {
			reads, k := randomSmallKReads(r)
			checkSVMatchesOracle(t, fmt.Sprintf("small-k %q", reads), dbgFixture(reads, k, 0)(t, cfg), algo)
			return
		}
		n := 1 + int(bits>>5)%96
		checkSVMatchesOracle(t, fmt.Sprintf("random-seg n=%d", n), randomSegSpec(r, n).fixture()(t, cfg), algo)
	})
}

// BenchmarkLabel times one whole labeling job per labeler — hello exchange,
// then list ranking with the S-V fallback if any cycle survives (/lr), or
// S-V alone (/sv) — on the golden genome's k-mer graph, and reports the
// job's superstep and message counts (which, unlike the time, are the same
// on every host).
func BenchmarkLabel(b *testing.B) {
	g := dbgFixture(goldenReads(b), 21, 1)(b, pregel.Config{Workers: 4})
	for _, algo := range []Labeler{LabelerLR, LabelerSV} {
		name := "lr"
		if algo == LabelerSV {
			name = "sv"
		}
		b.Run(name, func(b *testing.B) {
			var ls *LabelStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if ls, err = LabelContigs(g, algo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ls.Supersteps), "supersteps")
			b.ReportMetric(float64(ls.Messages), "msgs")
		})
	}
}

// roundDs folds D traces into (round, vertex) → D. A round replayed after a
// recovery records again, and must record the same D.
func roundDs(t *testing.T, name string, trs ...*dTrace) map[[2]uint64]pregel.VertexID {
	t.Helper()
	out := map[[2]uint64]pregel.VertexID{}
	for _, tr := range trs {
		for _, es := range tr.byWorker {
			for _, e := range es {
				k := [2]uint64{uint64(e.round), uint64(e.id)}
				if d, ok := out[k]; ok && d != e.d {
					t.Fatalf("%s: round %d, vertex %#x: D %#x on replay, %#x before", name, e.round, uint64(e.id), uint64(e.d), uint64(d))
				}
				out[k] = e.d
			}
		}
	}
	return out
}

// vertexLabel is a vertex's contig label and whether it has one.
type vertexLabel struct {
	label   pregel.VertexID
	labeled bool
}

// labels is every vertex's vertexLabel.
func labels(g *Graph) map[pregel.VertexID]vertexLabel {
	out := map[pregel.VertexID]vertexLabel{}
	g.ForEach(func(id pregel.VertexID, v *VData) { out[id] = vertexLabel{v.Label, v.Labeled} })
	return out
}

// TestSVResumesMidJob: the addresses the S-V job sends to survive recovery.
// A FaultPlan crash inside contig-label-sv, and a process killed mid-job
// whose successor resumes it from a DirCheckpointer, both leave the same
// labels and the same D after every round as a clean run, at workers
// {1, 4, 7}.
func TestSVResumesMidJob(t *testing.T) {
	fixtures := map[string]labelFixture{
		"path67":  namedSegSpecs()["path67"].fixture(),
		"golden4": dbgFixture(goldenReads(t)[:400], 21, 1),
	}
	for fname, build := range fixtures {
		for _, workers := range []int{1, 4, 7} {
			name := fmt.Sprintf("%s/w%d", fname, workers)
			run := func(cfg pregel.Config) (*Graph, *dTrace, int, error) {
				g := build(t, cfg)
				tr := newDTrace(workers)
				svSteps, _, _, err := svProduct(g, LabelerSV, tr)
				return g, tr, svSteps, err
			}
			clean, trClean, svSteps, err := run(pregel.Config{Workers: workers})
			if err != nil {
				t.Fatalf("%s: clean run: %v", name, err)
			}
			if svSteps < 12 {
				t.Fatalf("%s: S-V took %d supersteps; the test needs at least four rounds", name, svSteps)
			}
			want := labels(clean)
			wantDs := roundDs(t, name, trClean)
			check := func(mode string, g *Graph, trs ...*dTrace) {
				t.Helper()
				if got := roundDs(t, name+"/"+mode, trs...); !reflect.DeepEqual(got, wantDs) {
					t.Errorf("%s/%s: per-round D differs from the clean run's (%d vs %d records)", name, mode, len(got), len(wantDs))
				}
				if got := labels(g); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: labels differ from the clean run's", name, mode)
				}
			}

			// The hello job ticks the plan twice; round 2+7 is the middle
			// of S-V's third round.
			plan := pregel.NewFaultPlan(pregel.Fault{Round: 2 + 7, Worker: workers - 1})
			crashed, trCrash, _, err := run(pregel.Config{Workers: workers, CheckpointEvery: 2, Faults: plan})
			if err != nil {
				t.Fatalf("%s: crashed run: %v", name, err)
			}
			if plan.FiredCount() != 1 {
				t.Fatalf("%s: the crash did not fire", name)
			}
			check("crash", crashed, trCrash)

			dir := t.TempDir()
			store1, err := pregel.NewDirCheckpointer(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The first process dies at S-V's superstep 8, after its
			// checkpoint there.
			_, tr1, _, err := run(pregel.Config{Workers: workers, CheckpointEvery: 2, Checkpointer: store1, MaxSupersteps: 8})
			if err == nil {
				t.Fatalf("%s: the first process did not fail at its superstep limit", name)
			}
			store2, err := pregel.NewDirCheckpointer(dir)
			if err != nil {
				t.Fatal(err)
			}
			resumed, tr2, _, err := run(pregel.Config{Workers: workers, CheckpointEvery: 2, Checkpointer: store2, Resume: true})
			if err != nil {
				t.Fatalf("%s: resumed run: %v", name, err)
			}
			check("resume", resumed, tr1, tr2)
		}
	}
}
