package scaffold

import "ppaassembler/internal/pregel"

// noPred marks a chain head.
const noPred = ^pregel.VertexID(0)

// Link is one bundled candidate join attached to a contig-link vertex: this
// vertex's SelfEnd meets NbrEnd of contig Nbr, supported by Weight pairs,
// with an estimated gap of Gap bases between the two ends.
type Link struct {
	Nbr     pregel.VertexID
	SelfEnd End
	NbrEnd  End
	Weight  int32
	Gap     float64
}

// SVertex is one contig in the contig-link graph, carrying the vertex state
// of both scaffolding jobs: candidate links (filter job input), the
// surviving link per end, and the orientation / predecessor assignment of
// the ordering job.
type SVertex struct {
	Len  int32
	Cand []Link

	// Keep/Has hold the post-filter link of each end (indexed by End).
	Keep [2]Link
	Has  [2]bool

	// Ordering-wave state: Assigned vertices know their orientation (Flip),
	// upstream neighbor (Pred, noPred at the head), the estimated gap to it
	// (PredGap), and the wave that assigned them (Wave, the head's ID —
	// waves from smaller heads win so both endpoints racing along a chain
	// agree, and Wave doubles as the chain's label).
	Assigned bool
	Flip     bool
	Wave     pregel.VertexID
	Pred     pregel.VertexID
	PredGap  float64
}

// SMsg is the message type of the filter and ordering jobs.
type SMsg struct {
	Kind    uint8
	From    pregel.VertexID
	FromEnd End
	ToEnd   End
	Wave    pregel.VertexID
	Gap     float64
}

// Message kinds.
const (
	msgPropose uint8 = iota
	msgWave
)

// filterLinks is the ambiguity-filter job, a two-superstep handshake.
// Superstep 0: every vertex keeps, per end, the end's candidate link iff it
// is the only one with Weight >= minSupport, and proposes it to the
// neighbor. Superstep 1: a kept link survives only when the neighbor
// proposed the reciprocal link — so a repeat contig whose end attracts two
// strong candidates not only keeps nothing itself but also forces both
// neighbors to drop their half of the join.
func filterLinks(g *pregel.Graph[SVertex, SMsg], minSupport int32) (*pregel.Stats, error) {
	return g.Run(func(ctx *pregel.Context[SMsg], id pregel.VertexID, v *SVertex, msgs []SMsg) {
		switch ctx.Superstep() {
		case 0:
			sent := false
			for ei := range v.Keep {
				e := End(ei)
				n := 0
				var pick Link
				for _, l := range v.Cand {
					if l.SelfEnd == e && l.Weight >= minSupport {
						n++
						pick = l
					}
				}
				if n == 1 {
					v.Keep[e], v.Has[e] = pick, true
					ctx.Send(pick.Nbr, SMsg{Kind: msgPropose, From: id, FromEnd: e, ToEnd: pick.NbrEnd})
					sent = true
				}
			}
			v.Cand = nil
			if !sent {
				ctx.VoteToHalt()
			}
		default:
			var confirmed [2]bool
			for _, m := range msgs {
				if m.Kind != msgPropose {
					continue
				}
				e := m.ToEnd
				if v.Has[e] && v.Keep[e].Nbr == m.From && v.Keep[e].NbrEnd == m.FromEnd {
					confirmed[e] = true
				}
			}
			for ei := range v.Has {
				if v.Has[ei] && !confirmed[ei] {
					v.Has[ei] = false
					v.Keep[ei] = Link{}
				}
			}
			ctx.VoteToHalt()
		}
	}, pregel.WithName("scaffold-filter"))
}

// orderChains assigns orientations and predecessor links by propagating
// waves inward from chain endpoints. Both endpoints of a chain start a wave
// carrying their own ID; every vertex adopts the smaller wave it has seen
// (overwriting the larger), flips itself when the wave enters through its R
// end, records the sender as predecessor, and forwards the wave through its
// other end. When the waves die out, every vertex of a non-cyclic chain is
// oriented away from the chain's smaller endpoint and holds that endpoint's
// ID in Wave, a label no other chain carries. Because filterLinks keeps only
// reciprocal links, every chain is a path or a cycle; cyclic chains have no
// endpoint, receive no wave, and stay unassigned — the caller emits their
// contigs as singletons.
func orderChains(g *pregel.Graph[SVertex, SMsg]) (*pregel.Stats, error) {
	return g.Run(func(ctx *pregel.Context[SMsg], id pregel.VertexID, v *SVertex, msgs []SMsg) {
		if ctx.Superstep() == 0 {
			v.Wave = noPred
			v.Pred = noPred
			nl := 0
			for ei := range v.Has {
				if v.Has[ei] {
					nl++
				}
			}
			switch nl {
			case 0: // singleton scaffold
				v.Assigned, v.Wave = true, id
			case 1: // chain endpoint: start a wave, oriented so the link faces right
				e := L
				if v.Has[R] {
					e = R
				}
				l := v.Keep[e]
				v.Assigned, v.Wave, v.Flip = true, id, e == L
				ctx.Send(l.Nbr, SMsg{Kind: msgWave, From: id, Wave: id, ToEnd: l.NbrEnd, Gap: l.Gap})
			}
			ctx.VoteToHalt()
			return
		}
		for _, m := range msgs {
			if m.Kind != msgWave || (v.Assigned && m.Wave >= v.Wave) {
				continue
			}
			v.Assigned = true
			v.Wave = m.Wave
			v.Pred = m.From
			v.PredGap = m.Gap
			v.Flip = m.ToEnd == R
			if o := m.ToEnd.opposite(); v.Has[o] {
				l := v.Keep[o]
				ctx.Send(l.Nbr, SMsg{Kind: msgWave, From: id, Wave: m.Wave, ToEnd: l.NbrEnd, Gap: l.Gap})
			}
		}
		ctx.VoteToHalt()
	}, pregel.WithName("scaffold-order"))
}
