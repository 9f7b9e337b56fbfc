package core

import (
	"fmt"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// ContigRec is one merged contig: a contig-kind segment node plus its
// assigned vertex ID (Figure 7(c): worker number + per-worker ordinal).
type ContigRec struct {
	ID   pregel.VertexID
	Node dbg.Node
}

// Len returns the contig's sequence length in bases.
func (c *ContigRec) Len() int { return c.Node.Seq.Len() }

// MergeResult is the output of operation ③.
type MergeResult struct {
	// Contigs holds the per-worker contig records (worker = the reducer
	// that created the contig, matching its ID).
	Contigs [][]ContigRec
	// DroppedTips counts unambiguous paths discarded at merge time because
	// they dead-end and are no longer than tipLen (§IV-B ③).
	DroppedTips int
	// Groups is the number of contig groups processed (before the tip
	// drop), i.e. the number of maximal unambiguous paths.
	Groups int
	Stats  *pregel.Stats
}

// member is the map-side record of operation ③: one labeled vertex.
type member struct {
	ID    pregel.VertexID
	label pregel.VertexID
	Node  dbg.Node
}

// MergeContigs is operation ③ (§IV-B): a mini-MapReduce that groups the
// labeled unambiguous vertices by contig label and stitches each group into
// a contig, orienting every member with the edge-polarity algebra
// (Property 1) and overlapping consecutive members by k-1 bases. Dangling
// groups no longer than tipLen are dropped as tips. Ambiguous vertices are
// not consumed; they stay in g for the next operations.
func MergeContigs(g *Graph, k, tipLen int) (*MergeResult, error) {
	workers := g.Workers()
	input := make([][]member, workers)
	labeled := make([]int, workers)
	// Both passes touch only their worker's slot, so the workers scan
	// concurrently under Parallel.
	g.ScanWorkers(func(w int, id pregel.VertexID, v *VData) {
		if v.Labeled {
			labeled[w]++
		}
	})
	for w := range input {
		input[w] = make([]member, 0, labeled[w])
	}
	g.ScanWorkers(func(w int, id pregel.VertexID, v *VData) {
		if v.Labeled {
			input[w] = append(input[w], member{ID: id, label: v.Label, Node: v.Node})
		}
	})

	// Reducers run concurrently under Parallel (reduceFn(w, ...) is only
	// ever called from reducer w), so every side effect — ordinal
	// assignment, group/tip counters, error capture — is partitioned by
	// reducer index and folded after the shuffle.
	res := &MergeResult{}
	ordinals := make([]uint32, workers)
	groups := make([]int, workers)
	droppedTips := make([]int, workers)
	errs := make([]error, workers)
	// The grouping deliberately leaves MRConfig.Partitioner nil: the
	// reducer index is baked into every contig's (worker, ordinal) ID and
	// therefore into the output's naming and order, so merge grouping must
	// stay placement-invariant — all three partitioners must produce
	// byte-identical contigs.
	out, st := pregel.MapReduceCfg(
		g.Clock(), pregel.MRConfig{
			Workers: workers, PairBytes: 64, Parallel: g.Config().Parallel, Faults: g.Config().Faults,
			Name: g.Config().JobPrefix + "group", Tracer: g.Config().Tracer, Metrics: g.Config().Metrics,
		},
		input, // 64 ≈ id + packed node on the wire, rough charge
		func(w int, m member, emit func(uint64, member)) {
			emit(uint64(m.label), m)
		},
		pregel.Uint64Hash,
		func(a, b uint64) bool { return a < b },
		func(w int, key uint64, group []member, emit func(ContigRec)) {
			groups[w]++
			rec, dropped, err := stitchGroup(w, &ordinals[w], group, k, tipLen)
			if err != nil && errs[w] == nil {
				errs[w] = err
			}
			if dropped {
				droppedTips[w]++
				return
			}
			if err == nil {
				emit(rec)
			}
		},
	)
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		res.Groups += groups[w]
		res.DroppedTips += droppedTips[w]
	}
	res.Contigs = out
	res.Stats = st
	return res, nil
}

// stitchGroup orders and stitches one contig group (the reduce(.) of
// §IV-B ③). It returns the contig record, or dropped=true when the group is
// a dead-ending path no longer than tipLen.
func stitchGroup(worker int, ordinal *uint32, group []member, k, tipLen int) (rec ContigRec, dropped bool, err error) {
	inGroup := make(map[pregel.VertexID]*member, len(group))
	for i := range group {
		inGroup[group[i].ID] = &group[i]
	}
	internal := func(a dbg.Adj) bool {
		_, ok := inGroup[a.Nbr]
		return a.Nbr != dbg.NullID && ok
	}

	// Identify a starting vertex: one with an external (or dead) side.
	// A cycle has none; start anywhere (smallest ID for determinism —
	// group order is deterministic but explicit is better).
	var start *member
	for i := range group {
		m := &group[i]
		ext := 2 - countInternal(m.Node, internal)
		if ext >= 1 && (start == nil || m.ID < start.ID) {
			start = m
		}
	}
	isCycle := start == nil
	if isCycle {
		for i := range group {
			if start == nil || group[i].ID < start.ID {
				start = &group[i]
			}
		}
	}

	// Orient the start so its internal edge (if any) leaves it.
	orient := dbg.L
	var outItem dbg.Adj
	hasOut := false
	for _, a := range start.Node.Adj {
		if internal(a) {
			n := a
			if n.In {
				n = n.Flip()
			}
			orient = n.PSelf
			// Re-normalize: we want the item expressed with PSelf=orient
			// and In=false, which n already is.
			outItem = n
			hasOut = true
			break
		}
	}

	var sb dna.Builder
	first := start.Node.Oriented(orient)
	sb.AppendSeq(first)
	cov := uint32(0)
	hasCov := false
	foldCov := func(c uint32) {
		if !hasCov || c < cov {
			cov, hasCov = c, true
		}
	}
	if start.Node.Kind == dbg.KindContig {
		foldCov(start.Node.Cov)
	}

	// Walk the path, appending each member's oriented sequence minus the
	// k-1 overlap, with a consistency check on the overlap itself.
	cur, curOrient := start, orient
	lastOrient := orient
	visited := 1
	for hasOut {
		foldCov(outItem.Cov)
		next, ok := inGroup[outItem.Nbr]
		if !ok {
			return rec, false, fmt.Errorf("core: contig walk left group at %x", outItem.Nbr)
		}
		if next == start {
			break // cycle closed
		}
		if visited++; visited > len(group) {
			return rec, false, fmt.Errorf("core: contig walk did not terminate (label group of %d)", len(group))
		}
		nextOrient := outItem.PNbr
		seq := next.Node.Oriented(nextOrient)
		// Overlap check: the stitched tail must equal the next segment's
		// head (k-1 bases) — a violated invariant means a polarity bug.
		tail := sb.Len() - (k - 1)
		for i := 0; i < k-1; i++ {
			if seq.At(i) != seqAt(&sb, tail+i) {
				return rec, false, fmt.Errorf("core: overlap mismatch while stitching contig (member %x)", next.ID)
			}
		}
		for i := k - 1; i < seq.Len(); i++ {
			sb.Append(seq.At(i))
		}
		if next.Node.Kind == dbg.KindContig {
			foldCov(next.Node.Cov)
		}
		// Find the ongoing edge: the item of next (normalized to
		// nextOrient) that is an out-edge and not the one we came through.
		cur, curOrient = next, nextOrient
		hasOut = false
		for _, a := range next.Node.Adj {
			if !internal(a) {
				continue
			}
			n := a.Normalized(nextOrient)
			if !n.In {
				outItem = n
				hasOut = true
				break
			}
		}
		lastOrient = nextOrient
	}
	_ = curOrient

	// Determine the two ends. Left end: start's external item, which under
	// the walk orientation must be incoming; right end: the final member's
	// external item, outgoing. Dead sides become NULL ends.
	left := externalEnd(start.Node, internal, orient, true)
	right := externalEnd(cur.Node, internal, lastOrient, false)
	if isCycle {
		left = dbg.Adj{Nbr: dbg.NullID, In: true, PSelf: dbg.L}
		right = dbg.Adj{Nbr: dbg.NullID, In: false, PSelf: dbg.L}
	}

	length := sb.Len()
	if (left.Nbr == dbg.NullID || right.Nbr == dbg.NullID) && length <= tipLen {
		return rec, true, nil
	}
	if !hasCov {
		foldCov(minAdjCov(start.Node))
	}

	*ordinal++
	rec = ContigRec{
		ID: dbg.ContigID(worker, *ordinal),
		Node: dbg.Node{
			Kind: dbg.KindContig,
			Seq:  sb.Seq(),
			Cov:  cov,
			Adj:  []dbg.Adj{left, right},
		},
	}
	return rec, false, nil
}

// externalEnd extracts a member's external edge as a contig end item. The
// contig side is always polarity L because the contig's stored sequence is
// the walk orientation (§IV-A: "we always keep the contig-side edge
// polarity to be L").
func externalEnd(n dbg.Node, internal func(dbg.Adj) bool, orient dbg.Polarity, wantIn bool) dbg.Adj {
	for _, a := range n.Adj {
		if a.Nbr == dbg.NullID || internal(a) {
			continue
		}
		e := a.Normalized(orient)
		if e.In == wantIn {
			return dbg.Adj{Nbr: e.Nbr, In: wantIn, PSelf: dbg.L, PNbr: e.PNbr, Cov: e.Cov, NbrLen: e.NbrLen}
		}
	}
	return dbg.Adj{Nbr: dbg.NullID, In: wantIn, PSelf: dbg.L}
}

func countInternal(n dbg.Node, internal func(dbg.Adj) bool) int {
	c := 0
	for _, a := range n.Adj {
		if internal(a) {
			c++
		}
	}
	return c
}

func minAdjCov(n dbg.Node) uint32 {
	var cov uint32
	has := false
	for _, a := range n.Adj {
		if a.Nbr != dbg.NullID && (!has || a.Cov < cov) {
			cov, has = a.Cov, true
		}
	}
	return cov
}

// seqAt reads base i out of an in-progress builder. The builder exposes no
// random access, so we keep a parallel accessor here.
func seqAt(b *dna.Builder, i int) dna.Base { return b.Seq().At(i) }
