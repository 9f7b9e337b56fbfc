// Package core implements PPA-assembler's assembly operations ②–⑤ (§IV-B)
// — contig labeling, contig merging, bubble filtering and tip removing — and
// the end-to-end pipeline ①②③④⑤⑥②③ evaluated in the paper. Everything runs
// on the pregel engine over the unified segment graph of package dbg, so a
// second labeling/merging round over a mix of ambiguous k-mers and contigs
// (arrow ⑥ of Figure 10) reuses the same code paths as the first.
package core

import (
	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
)

// VData is the vertex value for all core operations: the segment node plus
// per-operation scratch state (the paper's vertex attribute a(v)). Fields
// are declared widest first so the struct packs into 112 bytes
// (TestVDataLayoutFence), which is all a derived k-mer costs; the
// checkpoint codec (ckpt.go) is per field and does not see this order.
type VData struct {
	Node dbg.Node

	// Contig-labeling state. A vertex has up to two "sides"; SideNbr[i] is
	// the neighbour on side i (HasSide[i] false for dead ends). P is
	// the pair of predecessor pointers of §IV-B ② (Figure 11), PSide the
	// side index of the pointer target that faces away from this vertex,
	// and Done marks sides whose pointer reached a flipped contig-end ID.
	// Inside the list-ranking job an undone side's P holds the target's
	// pregel.Addr instead of its ID, so that every push goes by address;
	// LabelContigs returns IDs (a cycle member's undone sides are
	// translated back). Until a vertex is labeled, Label holds its side
	// neighbours' positions (sidePos), which the hellos deliver.
	// Simplified S-V keeps its state in an svVertex of its own (label.go)
	// and writes back only Label and Labeled.
	SideNbr    [2]pregel.VertexID
	P          [2]pregel.VertexID
	Label      pregel.VertexID
	LastActive int64

	// NbrAmbig is a bit mask over the node's items: bit i is set when
	// item i points at an ambiguous (⟨m-n⟩) neighbor. It is learned in the
	// labeling hello exchange and consumed when rebuilding adjacency after
	// merging (operation ⑤ setup). A k-mer has at most dbg.MaxDegree
	// items and a contig 2, so 32 bits cover every vertex.
	NbrAmbig uint32
	PSide    [2]uint8
	HasSide  [2]bool
	Done     [2]bool
	// Ambig records this vertex's own ⟨m-n⟩ status at labeling time.
	Ambig   bool
	Labeled bool
	Cycle   bool

	// Tip-removal state.
	TipProbed bool
}

// MsgKind discriminates the message types of the core operations.
type MsgKind uint8

// Message kinds. The numeric values are checkpoint and wire bytes: append
// new kinds, never reorder. MsgReq has had no sender in the product since
// list ranking became push-based — a pointer's new value arrives unasked as
// a MsgResp — but keeps its slot, and the request/respond oracle in
// label_oracle_test.go still sends it.
const (
	MsgHello   MsgKind = iota // labeling setup: sender identity + side + ambiguity
	MsgReq                    // list ranking, request/respond form only: pointer-jump request
	MsgResp                   // list ranking: new pointer (ID, Side2) for the receiver's side Side
	MsgSVQuery                // S-V: ask parent for its parent
	MsgSVReply                // S-V: parent's reply
	MsgSVNbr                  // S-V: neighbor D broadcast
	MsgSVHook                 // S-V: hook proposal
	MsgCtgLink                // op ⑤ setup: contig announces itself to end k-mers
	MsgTipReq                 // op ⑤: REQUEST wave
	MsgTipDel                 // op ⑤: DELETE wave
)

// Msg is the message type of the segment graph's jobs (one Pregel vertex
// program per operation, as in the paper) apart from contig labeling, whose
// jobs run over the same vertices with smaller messages of their own
// (labelMsg and svMsg, label.go); the labeling oracles in
// label_oracle_test.go keep Msg.
//
// No kind needs a sender and a pointer at once, so one ID field carries
// whichever the kind uses, and the one length field serves the two kinds that
// carry a length. Fields are declared widest first so the struct packs into
// 24 bytes (a routed lane entry, its 8-byte destination plus the message,
// into 32): every message is copied once into a lane and once into an inbox
// arena, so its size is the shuffle's memory traffic. The checkpoint/wire
// codec (ckpt.go) is per field and does not see this order.
type Msg struct {
	// ID is the sender for MsgHello, MsgReq, MsgSVQuery, MsgCtgLink,
	// MsgTipReq and MsgTipDel, and a pointer value for the others: the new
	// list-ranking pointer (MsgResp), the S-V parent (MsgSVReply), a
	// neighbour's D (MsgSVNbr) or the proposed hook target (MsgSVHook).
	ID  pregel.VertexID
	Cov uint32
	// Len is the contig length for MsgCtgLink and the cumulative dangling-
	// path length for MsgTipReq, capped at tipLen+1 (tipReqLen).
	Len   int32
	Kind  MsgKind
	Side  uint8
	Side2 uint8
	Flag  bool
	P1    dbg.Polarity
	P2    dbg.Polarity
}

// MsgWireBytes is the charged wire size of one Msg on the simulated
// network, the size of its codec encoding (ckpt.go) for a typical message:
// kind, sides and polarities (5) + flag (1) + one vertex ID (8) + the
// varint-packed length and coverage (2 for a hello or a tip DELETE, 3 for a
// contig announcement or a tip REQUEST). TestMsgWireBytesMatchesCodec keeps
// it within two bytes of the largest representative encoding. The engine's
// generic 16-byte default undercharges this record, so every constructor of
// a segment graph (NewSegmentGraph, BuildMixedGraph) sets it on the graph
// whatever the caller's Config says: every job is then priced against the
// traffic the paper's cluster would actually carry.
const MsgWireBytes = 17

// Graph is the segment graph all core operations run on.
type Graph = pregel.Graph[VData, Msg]

// NewSegmentGraph loads the compact DBG of operation ① as the segment
// graph consumed by operations ②–⑤: each reducer's shard of k-mer vertices
// becomes its worker's partition in memory (pregel.LoadShards, the convert
// UDF of §II applied to the build's output), each vertex a derived k-mer
// node. The graph charges clock. k is the k-mer length.
func NewSegmentGraph(b *dbg.BuildResult, cfg pregel.Config, clock *pregel.SimClock, k int) *Graph {
	cfg.MessageBytes = MsgWireBytes
	g := pregel.NewGraph[VData, Msg](cfg)
	g.UseClock(clock)
	pregel.LoadShards(g, b.Vertices, func(r *dbg.KmerRec) (pregel.VertexID, VData) {
		return r.ID, VData{Node: dbg.KmerNode(r.ID, &r.V, k)}
	})
	return g
}

// arrangeSides lays out a vertex's real adjacency items into the two side
// slots used by labeling: ⟨1-1⟩ vertices get both real items, ⟨1⟩ vertices
// get their single real item in slot 0, isolated vertices get none.
func (v *VData) arrangeSides() {
	v.HasSide = [2]bool{}
	i := 0
	for _, a := range v.Node.Items() {
		if a.Nbr == dbg.NullID {
			continue
		}
		v.SideNbr[i] = a.Nbr
		v.HasSide[i] = true
		if i++; i == 2 {
			break
		}
	}
}

// sidePos returns the partition position of the neighbour on side i, which
// with its ID (SideNbr) forms its address. The hellos leave both positions
// in Label, unused until the vertex is labeled (setSidePos); only an
// undone side's is set.
func (v *VData) sidePos(i int) uint32 { return uint32(v.Label >> (32 * i)) }

// setSidePos stores the side neighbours' positions for sidePos.
func (v *VData) setSidePos(pos [2]uint32) {
	v.Label = pregel.VertexID(pos[1])<<32 | pregel.VertexID(pos[0])
}

// undoneSides counts sides that have not reached a contig end.
func (v *VData) undoneSides() int64 {
	n := int64(0)
	for i := 0; i < 2; i++ {
		if !v.Done[i] {
			n++
		}
	}
	return n
}

// finishLabel derives the contig label once both pointers are final: the
// smaller of the two contig-end vertex IDs (§IV-B ②).
func (v *VData) finishLabel() {
	a, b := dbg.UnflipID(v.P[0]), dbg.UnflipID(v.P[1])
	if b < a {
		a = b
	}
	v.Label = a
	v.Labeled = true
}
