package core

import (
	"math"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
)

// TipResult is the output of operation ⑤.
type TipResult struct {
	// LinkStats covers the two-superstep adjacency rebuild, TipStats the
	// REQUEST/DELETE waves.
	LinkStats, TipStats *pregel.Stats
	// RemovedVertices counts vertices (k-mers and contigs) deleted as tip
	// members.
	RemovedVertices int
}

// LinkContigs is the setup phase of operation ⑤ (§IV-B): in superstep 1
// every contig vertex sends its information (ID, length, coverage, end
// polarity) to its non-NULL end neighbors; in superstep 2 every ambiguous
// k-mer collects the announcements into its adjacency list, replacing the
// stale items that pointed into now-merged unambiguous paths (those were
// dropped when the graph was rebuilt).
func LinkContigs(g *Graph) (*pregel.Stats, error) {
	return g.Run(func(ctx *pregel.Context[Msg], id pregel.VertexID, v *VData, msgs []Msg) {
		switch ctx.Superstep() {
		case 0:
			if v.Node.Kind == dbg.KindContig {
				for _, end := range v.Node.Adj {
					if end.Nbr == dbg.NullID {
						continue
					}
					ctx.Send(end.Nbr, Msg{
						Kind: MsgCtgLink,
						ID:   id,
						Flag: end.In,
						P1:   end.PNbr, // polarity on the k-mer's side
						Cov:  end.Cov,
						Len:  int32(v.Node.Seq.Len()),
					})
				}
			}
			ctx.VoteToHalt()
		case 1:
			for _, m := range msgs {
				if m.Kind != MsgCtgLink {
					continue
				}
				// Perspective reversal (not Property 1): the edge that is
				// the contig's in-end is the k-mer's out-edge.
				v.Node.AddItem(dbg.Adj{
					Nbr:    m.ID,
					In:     !m.Flag,
					PSelf:  m.P1,
					PNbr:   dbg.L, // contig-side polarity is always L
					Cov:    m.Cov,
					NbrLen: m.Len,
				})
			}
			ctx.VoteToHalt()
		}
	}, pregel.WithName("link-contigs"))
}

// RemoveTips is the wave phase of operation ⑤ (§IV-B): ⟨1⟩-typed vertices
// launch REQUEST messages carrying the cumulative dangling-path length;
// ⟨1-1⟩ vertices relay them (adding their own length minus the k-1
// overlap); the terminal vertex sends DELETE back along the path when the
// cumulative length is within tipLen, deleting the dangling vertices and
// cutting its own edge. Vertices that become ⟨1⟩ through deletions launch
// their own REQUESTs (the paper's multi-phase loop), so one engine run
// reaches the fixed point. Relays drop REQUESTs whose cumulative length
// already exceeds tipLen, bounding the wave depth.
func RemoveTips(g *Graph, k, tipLen int) (*TipResult, error) {
	res := &TipResult{}
	before := g.VertexCount()
	st, err := g.Run(func(ctx *pregel.Context[Msg], id pregel.VertexID, v *VData, msgs []Msg) {
		if ctx.Superstep() == 0 {
			v.TipProbed = false
		}
		mutated := false
		for _, m := range msgs {
			switch m.Kind {
			case MsgTipReq:
				switch v.Node.Type() {
				case dbg.TypeOneOne:
					other, ok := otherSide(&v.Node, m.ID)
					if !ok {
						break
					}
					newLen := int(m.Len) + v.Node.Len() - (k - 1)
					if newLen <= tipLen {
						ctx.Send(other.Nbr, Msg{Kind: MsgTipReq, ID: id, Len: tipReqLen(newLen, tipLen)})
					}
				default:
					// Terminal (⟨m-n⟩ or ⟨1⟩ or newly degraded): when the
					// dangling path is short enough, send DELETE back
					// (which kills the relays and the originator — not
					// this terminal) and cut the edge towards it. A
					// floating tip with two ⟨1⟩ ends dies symmetrically:
					// each end is deleted by the DELETE answering its own
					// REQUEST (the paper's "meet in the middle" case), or
					// by the isolated-segment check below once its last
					// edge is cut.
					if int(m.Len) <= tipLen {
						ctx.Send(m.ID, Msg{Kind: MsgTipDel, ID: id})
						v.Node.RemoveEdgeTo(m.ID)
						mutated = true
					}
				}
			case MsgTipDel:
				if other, ok := otherSide(&v.Node, m.ID); ok {
					ctx.Send(other.Nbr, Msg{Kind: MsgTipDel, ID: id})
				}
				ctx.RemoveSelf()
				return
			}
		}
		switch v.Node.Type() {
		case dbg.TypeIsolated:
			if v.Node.Len() <= tipLen {
				ctx.RemoveSelf()
				return
			}
		case dbg.TypeOne:
			if !v.TipProbed {
				v.TipProbed = true
				real := v.Node.RealAdj()
				ctx.Send(real[0].Nbr, Msg{Kind: MsgTipReq, ID: id, Len: tipReqLen(v.Node.Len(), tipLen)})
			}
		}
		if !mutated {
			ctx.VoteToHalt()
		}
	}, pregel.WithName("remove-tips"))
	if err != nil {
		return nil, err
	}
	res.TipStats = st
	res.RemovedVertices = before - g.VertexCount()
	return res, nil
}

// tipReqLen is the dangling-path length a REQUEST carries: n, capped at
// tipLen+1. Every length past tipLen fails the tip test alike, and relays
// only add to it, so the cap changes no decision; it keeps a segment longer
// than the int32 field from wrapping negative and passing for a short tip.
// A tipLen of math.MaxInt32-1 or more caps at math.MaxInt32.
func tipReqLen(n, tipLen int) int32 {
	return int32(min(n, min(tipLen, math.MaxInt32-1)+1))
}

// otherSide returns an adjacency item of n that does not point at from
// (the relay direction of a REQUEST/DELETE wave).
func otherSide(n *dbg.Node, from pregel.VertexID) (dbg.Adj, bool) {
	for _, a := range n.Items() {
		if a.Nbr != dbg.NullID && a.Nbr != from {
			return a, true
		}
	}
	return dbg.Adj{}, false
}
