package core

import (
	"time"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
)

// Labeler selects the contig-labeling algorithm (the comparison axis of
// Tables II and III).
type Labeler int

// Available labelers.
const (
	// LabelerLR is bidirectional list ranking with S-V fallback for
	// cycles (the paper's preferred method).
	LabelerLR Labeler = iota
	// LabelerSV labels with the simplified S-V algorithm alone.
	LabelerSV
)

func (l Labeler) String() string {
	if l == LabelerSV {
		return "S-V"
	}
	return "LR"
}

// LabelStats reports one labeling run in the shape of Tables II/III.
type LabelStats struct {
	Algorithm   Labeler
	Supersteps  int
	Messages    int64
	WallSeconds float64
	SimSeconds  float64
	// CycleVertices counts vertices labeled by the S-V fallback.
	CycleVertices int
}

const aggUndone = "lr-undone-sides"

// labelMsg is the message of the hello supersteps and of push list ranking:
// a hello carries the sender (ID), its side and its ambiguity (Flag), a
// list-ranking push the new pointer (ID, Side2) for the receiver's side
// Side. At 16 bytes it is two thirds of Msg, which labeling never needs:
// no labeling message carries a length, a coverage or a polarity.
type labelMsg struct {
	ID          pregel.VertexID
	Kind        MsgKind
	Side, Side2 uint8
	Flag        bool
}

// labelMsgWireBytes is the charged wire size of one labelMsg: its codec
// (ckpt.go) writes kind, sides and flag (4) and one fixed 8-byte vertex ID
// (TestLabelMsgWireBytesMatchesCodec).
const labelMsgWireBytes = 12

// svMsg is the S-V job's message: a vertex ID and the address to reach
// that vertex at (pregel.Addr), so that a receiver which adopts the ID as
// its D or NbrMin can send to it without the engine looking the ID up. A
// query carries svQuery in place of an ID and the querier's address.
type svMsg struct {
	ID pregel.VertexID
	A  pregel.Addr
}

// svQuery tags an S-V query. It is dbg's flip bit, which no vertex ID — and
// so no D — carries (TestSVQueryTagIsNoVertexID).
const svQuery pregel.VertexID = 1 << 62

// svMsgWireBytes is the charged wire size of one svMsg, which its codec
// (ckpt.go) writes as two uvarints: 6 bytes for a 21-mer's 42-bit ID and 5
// for the address of a vertex on worker 1-7 (TestLabelMsgWireBytesMatchesCodec).
const svMsgWireBytes = 11

// LabelContigs is operation ② (§IV-B): it marks every vertex of each
// maximal unambiguous path with the path's unique contig label. Ambiguous
// (⟨m-n⟩) vertices end up with Labeled == false; as a side effect every
// vertex learns which of its neighbors are ambiguous (VData.NbrAmbig),
// which operation ⑤ consumes later.
func LabelContigs(g *Graph, algo Labeler) (*LabelStats, error) {
	start := time.Now()
	sim0 := g.Clock().Seconds()
	ls := &LabelStats{Algorithm: algo}
	add := func(st *pregel.Stats, err error) error {
		if err == nil {
			ls.Supersteps += st.Supersteps
			ls.Messages += st.Messages
		}
		return err
	}
	// Each job runs over the same vertices with the smallest message it
	// needs: hellos and list ranking send labelMsg over VData, S-V an
	// (ID, address) svMsg over its own svVertex (svRun).
	lg := pregel.WithMessages[labelMsg](g, labelMsgWireBytes)
	if algo == LabelerLR {
		if err := add(lg.Run(lrCompute, pregel.WithName("contig-label-lr"))); err != nil {
			return nil, err
		}
		// Cycles of ⟨1-1⟩ vertices never reach a contig end; label the
		// marked residue with the simplified S-V algorithm (§IV-B ②).
		g.ForEach(func(id pregel.VertexID, v *VData) {
			if v.Cycle {
				ls.CycleVertices++
			}
		})
		if ls.CycleVertices > 0 {
			if err := add(svRun(g, "contig-label-cycle-sv", svCycleMember, svCompute)); err != nil {
				return nil, err
			}
		}
	} else {
		if err := add(lg.Run(helloCompute, pregel.WithName("contig-label-hello"))); err != nil {
			return nil, err
		}
		// A job starts with every vertex active, so S-V runs only if some
		// vertex is left unlabeled: the two jobs then take the supersteps
		// one job with the hellos in its first two would.
		pending := false
		g.ForEach(func(id pregel.VertexID, v *VData) {
			pending = pending || svLabelMember(v)
		})
		if pending {
			if err := add(svRun(g, "contig-label-sv", svLabelMember, svCompute)); err != nil {
				return nil, err
			}
		}
	}
	ls.WallSeconds = time.Since(start).Seconds()
	ls.SimSeconds = g.Clock().Seconds() - sim0
	return ls, nil
}

// helloPhase implements supersteps 0 and 1 shared by both labelers: every
// vertex announces (identity, side index, ambiguity) to its neighbors, then
// unambiguous vertices set up their side pointers, replacing edges to
// ambiguous neighbors and dead ends by flipped self-loops (Figure 11), and
// every vertex records NbrAmbig. It reports whether the caller should
// return (vertex halted or fully handled).
//
// Side setup establishes the back-pointer invariant list ranking relies on:
// if x.P[s] == y (unflipped) and x.PSide[s] == j, then y.P[1-j] == x and
// y.PSide[1-j] == 1-s — y points back at x on the side facing it. Hellos
// from one neighbor are matched to this vertex's sides in arrival order on
// both ends of an edge, which is what keeps the invariant on 2-cycles,
// self-loops and reverse-complement hairpins.
func helloPhase(ctx *pregel.Context[labelMsg], id pregel.VertexID, v *VData, msgs []labelMsg) (done bool) {
	switch ctx.Superstep() {
	case 0:
		v.Ambig = v.Node.Type() == dbg.TypeManyAny
		v.Labeled, v.Cycle = false, false
		v.Done = [2]bool{}
		v.TipProbed = false
		v.LastActive = -1
		v.arrangeSides()
		if v.Ambig {
			// Ambiguous vertices announce without side bookkeeping and
			// take no further part in labeling (§IV-B ②, superstep 1).
			for _, a := range v.Node.Items() {
				if a.Nbr != dbg.NullID {
					ctx.Send(a.Nbr, labelMsg{Kind: MsgHello, ID: id, Flag: true})
				}
			}
			ctx.VoteToHalt()
			return true
		}
		for i := 0; i < 2; i++ {
			if v.HasSide[i] {
				ctx.Send(v.SideNbr[i], labelMsg{Kind: MsgHello, ID: id, Side: uint8(i)})
			}
		}
		return true
	case 1:
		// A vertex receives one hello per real adjacency item (at most
		// eight for a k-mer), so matching is a scan of msgs, not a map.
		v.NbrAmbig = 0
		for i, a := range v.Node.Items() {
			if a.Nbr != dbg.NullID && helloAmbig(msgs, a.Nbr) {
				v.NbrAmbig |= 1 << i
			}
		}
		if v.Ambig {
			ctx.VoteToHalt()
			return true
		}
		for i := 0; i < 2; i++ {
			nbr := v.SideNbr[i]
			if !v.HasSide[i] || helloAmbig(msgs, nbr) {
				// Dead end, or edge to an ambiguous vertex: this vertex is
				// a contig end on side i — install the flipped self-loop.
				v.P[i] = dbg.FlipID(id)
				v.Done[i] = true
				continue
			}
			// Side 1 takes the neighbor's second hello when side 0 took
			// its first (both sides on one neighbor).
			skip := 0
			if i == 1 && v.HasSide[0] && v.SideNbr[0] == nbr {
				skip = 1
			}
			v.P[i] = nbr
			v.PSide[i] = 1 - helloSide(msgs, nbr, skip)
		}
		if v.Done[0] && v.Done[1] {
			v.finishLabel()
			ctx.VoteToHalt()
			return true
		}
		return false // caller continues with algorithm-specific setup
	}
	return false
}

// helloAmbig reports whether any hello from nbr carries the ambiguity flag.
func helloAmbig(msgs []labelMsg, nbr pregel.VertexID) bool {
	for i := range msgs {
		if m := &msgs[i]; m.Kind == MsgHello && m.ID == nbr && m.Flag {
			return true
		}
	}
	return false
}

// helloSide returns the sender side of the hello from nbr that follows skip
// earlier ones in arrival order (side 0 if nbr sent no such hello).
func helloSide(msgs []labelMsg, nbr pregel.VertexID, skip int) uint8 {
	for i := range msgs {
		if m := &msgs[i]; m.Kind == MsgHello && m.ID == nbr {
			if skip == 0 {
				return m.Side
			}
			skip--
		}
	}
	return 0
}

// helloCompute is the S-V labeler's first job: the two hello supersteps
// alone, after which every vertex halts and S-V takes over (svRun).
func helloCompute(ctx *pregel.Context[labelMsg], id pregel.VertexID, v *VData, msgs []labelMsg) {
	helloPhase(ctx, id, v, msgs)
	if ctx.Superstep() == 1 {
		ctx.VoteToHalt()
	}
}

// lrCompute is the bidirectional-list-ranking labeler (Figure 11), one
// superstep and two messages per vertex per doubling round. The paper's BPPA
// asks P[i] for its away-side pointer and waits for the answer; on a doubly
// linked list the answer's owner already knows who will ask. By the
// back-pointer invariant (helloPhase) the vertex a = P[0] points back at
// this vertex on its side 1-PSide[0], and the value it needs there is this
// vertex's P[1] — so the vertex pushes P[1] to a and P[0] to P[1] without
// being asked. The receiver's overwritten side then points two hops (2^r
// after r rounds) further, at a vertex that pushed the matching update to
// this one in the same superstep, so the invariant survives the round and
// every round leaves exactly the P/PSide/Done the request/respond form does
// (label_oracle_test.go keeps that form as the reference).
//
// A side whose pointer reached a flipped contig-end ID is Done and silent:
// nothing points back at it (flipped IDs are not vertices), so it neither
// pushes toward that side nor receives on it; the value it still pushes the
// other way is the flipped ID, which finishes the receiver's side too.
//
// An aggregator counts undone sides per round. A path loses at least one
// undone side every round (the vertex next to the end learns the end), so a
// positive count equal to the previous round's means only cycles remain and
// the survivors mark themselves for the S-V fallback.
func lrCompute(ctx *pregel.Context[labelMsg], id pregel.VertexID, v *VData, msgs []labelMsg) {
	if ctx.Superstep() <= 1 {
		if helloPhase(ctx, id, v, msgs) {
			return
		}
		// Sides are set up and some are pending: round 1 starts here.
	} else {
		if v.Ambig || v.Labeled || v.Cycle {
			ctx.VoteToHalt()
			return
		}
		for i := range msgs {
			m := &msgs[i]
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
		// PrevAggSum is the undone count before the round just applied,
		// LastActive the one before that.
		cur := ctx.PrevAggSum(aggUndone)
		if v.LastActive >= 0 && cur > 0 && cur == v.LastActive {
			v.Cycle = true
			ctx.VoteToHalt()
			return
		}
		v.LastActive = cur
	}
	ctx.AggSum(aggUndone, v.undoneSides())
	for i := 0; i < 2; i++ {
		if !v.Done[i] {
			ctx.Send(v.P[i], labelMsg{Kind: MsgResp, Side: 1 - v.PSide[i], ID: v.P[1-i], Side2: v.PSide[1-i]})
		}
	}
}

const aggSVChanged = "sv-changed"

// svVertex is a vertex's whole state in one S-V run: 56 bytes where VData
// is 112, so the 70 or so supersteps of a long-path S-V job stream half the
// vertex bytes (TestSVVertexLayoutFence). RunAs builds it from
// VData (svRun) and hands back only the label.
type svVertex struct {
	// D is the parent pointer, NbrMin the smallest D any side neighbour
	// has broadcast.
	D, NbrMin pregel.VertexID
	// DA and NbrMinA are the addresses of D and NbrMin, NbrA[i] that of the
	// neighbour on side i, an edge of the S-V subgraph if Live[i]
	// (VData.HasSide && !Done).
	DA, NbrMinA pregel.Addr
	NbrA        [2]pregel.Addr
	Live        [2]bool
	// DNew marks a D not yet broadcast; Idle a vertex outside this run,
	// which halts at once and keeps its VData labels.
	DNew, Idle bool
}

// svRun runs simplified S-V (svCompute) over the vertices of g that member
// accepts, each as an svVertex, and labels every one of them with its D.
// Side neighbours are resolved to addresses once, here; every later S-V
// message goes by address.
func svRun(g *Graph, name string, member func(*VData) bool, compute pregel.Compute[svVertex, svMsg]) (*pregel.Stats, error) {
	return pregel.RunAs[svVertex, svMsg](g, svMsgWireBytes,
		func(id pregel.VertexID, v *VData) svVertex {
			if !member(v) {
				return svVertex{Idle: true}
			}
			s := svVertex{D: id, NbrMin: id, DNew: true}
			for i := 0; i < 2; i++ {
				// A side neighbour that is not a vertex could only drop
				// the broadcasts sent to it.
				if v.HasSide[i] && !v.Done[i] {
					s.NbrA[i], s.Live[i] = g.AddrOf(v.SideNbr[i])
				}
			}
			return s
		},
		compute,
		func(id pregel.VertexID, v *VData, s *svVertex) {
			if !s.Idle {
				v.Label, v.Labeled = s.D, true
			}
		},
		pregel.WithName(name))
}

// svLabelMember selects the pure-S-V labeler's vertices: every vertex the
// hellos left unlabeled. Every vertex in an unambiguous path obtains the
// smallest vertex ID of the path as its label (ends included, because the
// path is a connected component once ambiguous edges are cut).
func svLabelMember(v *VData) bool { return !v.Ambig && !v.Labeled }

// svCycleMember selects the vertices the LR labeler marked as cycle
// members. A cycle of ⟨1-1⟩ vertices has both sides live, so the side
// subgraph is exactly the cycle.
func svCycleMember(v *VData) bool { return v.Cycle && !v.Labeled }

// svCompute is the S-V job: a vertex outside the run halts at once, every
// other one runs three-superstep simplified-S-V rounds over the
// side-neighbor subgraph (sides with Live set are the surviving edges)
// until they converge. phase is the job's superstep % 3. Convergence
// is signalled through the shared boolean aggregator; on convergence the
// vertex halts, and svRun labels it with D.
//
//	phase 0: apply hook proposals; query the parent D for its parent;
//	         broadcast a new D to the side neighbours
//	phase 1: answer queries with D; fold broadcasts into NbrMin
//	phase 2: DD = D[D[v]] is the reply; tree hooking (if D is a root and a
//	         neighbour's D is smaller, propose it to D), then shortcutting
//	         (D ← DD)
//
// Every message goes by address and names a vertex with its address, so a
// vertex that adopts an ID as D or NbrMin can send to it next. Phase 1
// receives queries and broadcasts; a query's ID is svQuery, which no D is.
//
// Each round sends only what its receiver does not already know, and leaves
// every D exactly where the four-message round (label_oracle_test.go keeps it
// as the reference) does:
//
//   - D never increases: a hook only lowers it, and a jump sets it to
//     D[D[v]] ≤ D[v] because every vertex keeps D[x] ≤ x. So the smallest D
//     a neighbour has ever broadcast is its current D, and a vertex
//     broadcasts only a D it has not sent yet (DNew), keeping the running
//     minimum of what it received in NbrMin.
//   - A root (D == id) answers a query with its own ID, which is the
//     querier's D. So a root neither queries nor answers, and a vertex
//     without a reply takes DD = D.
//   - The broadcast and the query need nothing the other phases produce:
//     D does not change between a round's hooks and its shortcut, so both
//     leave in phase 0, one superstep before the reference sends its
//     broadcast, and the round needs three supersteps instead of four.
func svCompute(ctx *pregel.Context[svMsg], id pregel.VertexID, v *svVertex, msgs []svMsg) {
	if v.Idle {
		ctx.VoteToHalt()
		return
	}
	switch ctx.Superstep() % 3 {
	case 0:
		if ctx.Superstep() == 0 {
			v.DA = ctx.Addr()
			v.NbrMinA = v.DA
		} else {
			if !ctx.PrevAggOr(aggSVChanged) {
				ctx.VoteToHalt()
				return
			}
			for _, hook := range msgs {
				if hook.ID < v.D {
					v.D, v.DA, v.DNew = hook.ID, hook.A, true
					ctx.AggOr(aggSVChanged, true)
				}
			}
		}
		if v.D != id {
			ctx.SendTo(v.DA, svMsg{ID: svQuery, A: ctx.Addr()})
		}
		if v.DNew {
			for i := 0; i < 2; i++ {
				if v.Live[i] {
					ctx.SendTo(v.NbrA[i], svMsg{ID: v.D, A: v.DA})
				}
			}
			v.DNew = false
		}
	case 1:
		root := v.D == id
		for _, m := range msgs {
			if m.ID != svQuery {
				if m.ID < v.NbrMin {
					v.NbrMin, v.NbrMinA = m.ID, m.A
				}
			} else if !root {
				ctx.SendTo(m.A, svMsg{ID: v.D, A: v.DA})
			}
		}
	case 2:
		dd := svMsg{ID: v.D, A: v.DA}
		for _, m := range msgs {
			dd = m
		}
		if dd.ID == v.D && v.NbrMin < v.D {
			ctx.SendTo(v.DA, svMsg{ID: v.NbrMin, A: v.NbrMinA})
			ctx.AggOr(aggSVChanged, true)
		}
		if dd.ID != v.D {
			v.D, v.DA, v.DNew = dd.ID, dd.A, true
			ctx.AggOr(aggSVChanged, true)
		}
	}
}
