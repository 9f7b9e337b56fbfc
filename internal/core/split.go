package core

import (
	"errors"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
)

// SplitResult is the output of the branch-splitting operation.
type SplitResult struct {
	// EdgesCut counts removed edges (counted once per edge).
	EdgesCut int
	Stats    *pregel.Stats
}

// SplitBranches is the branch-splitting error-correction operation the
// paper's §V names as an example of a user-added operation (it originates
// in Spaler [1]): at every ambiguous (⟨m-n⟩) vertex, edges whose coverage
// is dominated ratio-to-one by the strongest parallel edge on the same
// side are cut — they are almost always contributed by erroneous reads.
// The severed branches become dangling paths that the next tip-removal
// pass cleans up, and previously ambiguous vertices may become unambiguous,
// letting the next labeling round grow longer contigs.
//
// Two supersteps: ambiguous vertices cut locally and notify the affected
// neighbors; neighbors drop the reciprocal items.
func SplitBranches(g *Graph, ratio uint32) (*SplitResult, error) {
	if ratio < 2 {
		return nil, errRatio
	}
	res := &SplitResult{}
	before := countEdgeEndpoints(g)
	st, err := g.Run(func(ctx *pregel.Context[Msg], id pregel.VertexID, v *VData, msgs []Msg) {
		switch ctx.Superstep() {
		case 0:
			if v.Node.Type() != dbg.TypeManyAny {
				ctx.VoteToHalt()
				return
			}
			// Group items by side (normalized direction): a branch exists
			// where several edges leave the same side; the dominant edge
			// must out-cover a victim ratio-to-one for the victim to go.
			var inMax, outMax uint32
			for _, a := range v.Node.RealAdj() {
				n := a.Normalized(dbg.L)
				if n.In {
					if n.Cov > inMax {
						inMax = n.Cov
					}
				} else if n.Cov > outMax {
					outMax = n.Cov
				}
			}
			for _, a := range v.Node.RealAdj() {
				n := a.Normalized(dbg.L)
				max := outMax
				if n.In {
					max = inMax
				}
				if n.Cov*ratio <= max {
					v.Node.RemoveEdgeTo(a.Nbr)
					ctx.Send(a.Nbr, Msg{Kind: MsgHello, ID: id, Flag: true})
				}
			}
			ctx.VoteToHalt()
		case 1:
			for _, m := range msgs {
				if m.Kind == MsgHello && m.Flag {
					v.Node.RemoveEdgeTo(m.ID)
				}
			}
			ctx.VoteToHalt()
		}
	}, pregel.WithName("split-branches"))
	if err != nil {
		return nil, err
	}
	res.EdgesCut = (before - countEdgeEndpoints(g)) / 2
	res.Stats = st
	return res, nil
}

// countEdgeEndpoints sums real adjacency items over all vertices (each
// surviving edge contributes two endpoints).
func countEdgeEndpoints(g *Graph) int {
	n := 0
	g.ForEach(func(_ pregel.VertexID, v *VData) { n += v.Node.RealDegree() })
	return n
}

// errRatio is returned for a degenerate dominance ratio.
var errRatio = errors.New("core: branch-split ratio must be >= 2")
