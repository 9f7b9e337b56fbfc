package core

import (
	"fmt"
	"math/bits"

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

// member is the map-side record of operation ③: one labeled vertex. It
// points into the partition rather than copying the vertex: merging only
// reads the graph, and every ContigRec builds its own Seq and Adj, so the
// shuffle moves 24-byte references (32-byte pairs) instead of whole nodes.
type member struct {
	ID    pregel.VertexID
	label pregel.VertexID
	*VData
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
			input[w] = append(input[w], member{ID: id, label: v.Label, VData: v})
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
	index := make([]groupIndex, workers)
	// The grouping is deliberately not MRConfig.Routed: the reducer index
	// is baked into every contig's (worker, ordinal) ID and therefore into
	// the output's naming and order, so merge grouping must stay
	// placement-invariant — every partitioner must produce byte-identical
	// contigs.
	cfg := g.Config()
	out, st := pregel.MapReduce(
		g.Clock(), cfg, pregel.MRConfig{Name: cfg.JobPrefix + "group", PairBytes: 64},
		input, // 64 ≈ id + packed node on the wire, rough charge; a pair in memory is 32
		func(w int, m member, emit func(uint64, member)) {
			emit(uint64(m.label), m)
		},
		pregel.Uint64Hash,
		func(a, b uint64) bool { return a < b },
		func(w int, key uint64, group []member, emit func(ContigRec)) {
			groups[w]++
			rec, dropped, err := stitchGroup(w, &ordinals[w], &index[w], group, k, tipLen)
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

// groupIndex finds a contig group's members by ID. It is an open-addressing
// table of member positions that one reducer keeps and refills for every
// group it reduces, so once the table has grown to the reducer's largest
// group, indexing a group allocates nothing.
type groupIndex struct {
	group []member
	slots []int32 // position in group + 1; 0 marks an empty slot
	shift uint
}

// reset indexes group, at most half filling the table.
func (x *groupIndex) reset(group []member) {
	bits := uint(1)
	for 1<<bits < 2*len(group) {
		bits++
	}
	if n := 1 << bits; cap(x.slots) < n {
		x.slots = make([]int32, n)
	} else {
		x.slots = x.slots[:n]
		clear(x.slots)
	}
	x.group, x.shift = group, 64-bits
	mask := uint64(len(x.slots) - 1)
	for i := range group {
		h := x.hash(group[i].ID)
		for x.slots[h] != 0 {
			h = (h + 1) & mask
		}
		x.slots[h] = int32(i + 1)
	}
}

func (x *groupIndex) hash(id pregel.VertexID) uint64 {
	return uint64(id) * 0x9e3779b97f4a7c15 >> x.shift
}

// target returns the member a points at, or nil if a leaves the group.
func (x *groupIndex) target(a dbg.Adj) *member {
	if a.Nbr == dbg.NullID {
		return nil
	}
	mask := uint64(len(x.slots) - 1)
	for h := x.hash(a.Nbr); ; h = (h + 1) & mask {
		p := x.slots[h]
		if p == 0 {
			return nil
		}
		if m := &x.group[p-1]; m.ID == a.Nbr {
			return m
		}
	}
}

// outEdge returns n's item that leaves it in orientation p towards another
// member of the group, normalized to p, and that member (nil if none).
func (x *groupIndex) outEdge(n *dbg.Node, p dbg.Polarity) (dbg.Adj, *member) {
	for _, a := range n.Items() {
		if e := a.Normalized(p); !e.In {
			if m := x.target(a); m != nil {
				return e, m
			}
		}
	}
	return dbg.Adj{}, nil
}

// stitchGroup orders and stitches one contig group (the reduce(.) of
// §IV-B ③). It returns the contig record, or dropped=true when the group is
// a dead-ending path no longer than tipLen. idx is the reducer's index,
// refilled here for this group.
func stitchGroup(worker int, ordinal *uint32, idx *groupIndex, group []member, k, tipLen int) (rec ContigRec, dropped bool, err error) {
	idx.reset(group)

	// Identify a starting vertex: one with an external (or dead) side. A
	// side is external when it has no real item (a NULL item of a contig
	// included) or when its item reaches an ambiguous vertex, which
	// labeling recorded in NbrAmbig: every other real item of an
	// unambiguous vertex reaches the same contig. A cycle has none; start
	// anywhere (smallest ID for determinism — group order is deterministic
	// but explicit is better).
	var start *member
	for i := range group {
		m := &group[i]
		ext := 2 - m.Node.RealDegree() + bits.OnesCount32(m.NbrAmbig)
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

	// Orient the start so its internal edge (if any) leaves it: expressed
	// with In=false, the item's PSelf is the start's walk orientation.
	orient := dbg.L
	var outItem dbg.Adj
	var next *member
	for _, a := range start.Node.Items() {
		if m := idx.target(a); m != nil {
			if a.In {
				a = a.Flip()
			}
			orient, outItem, next = a.PSelf, a, m
			break
		}
	}

	// The stitched sequence is sized up front: each member adds its length
	// minus the k-1 bases it shares with its predecessor.
	total := k - 1
	for i := range group {
		total += segLen(&group[i], k) - (k - 1)
	}
	var sb dna.Builder
	sb.Grow(total)
	tail := appendMember(&sb, start, orient, k)
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
	// k-1 overlap. tail is the stitched sequence's last k-1 bases, which
	// must equal the next member's first k-1 bases: a violated invariant
	// means a polarity bug.
	cur, lastOrient := start, orient
	visited := 1
	for next != nil {
		foldCov(outItem.Cov)
		if next == start {
			break // cycle closed
		}
		if visited++; visited > len(group) {
			return rec, false, fmt.Errorf("core: contig walk did not terminate (label group of %d)", len(group))
		}
		nextOrient := outItem.PNbr
		if next.Node.Kind == dbg.KindKmer {
			m := orientedKmer(next.ID, nextOrient, k)
			if dna.Kmer(uint64(m)>>2) != tail {
				return rec, false, fmt.Errorf("core: overlap mismatch while stitching contig (member %x)", next.ID)
			}
			sb.Append(m.Last())
			tail = dna.Kmer(uint64(m) & dna.KmerMask(k-1))
		} else {
			seq := next.Node.Oriented(nextOrient)
			if dna.KmerFromSeq(seq, 0, k-1) != tail {
				return rec, false, fmt.Errorf("core: overlap mismatch while stitching contig (member %x)", next.ID)
			}
			for i := k - 1; i < seq.Len(); i++ {
				sb.Append(seq.At(i))
			}
			tail = dna.KmerFromSeq(seq, seq.Len()-(k-1), k-1)
			foldCov(next.Node.Cov)
		}
		cur, lastOrient = next, nextOrient
		outItem, next = idx.outEdge(&next.Node, nextOrient)
	}

	// Determine the two ends. Left end: start's external item, which under
	// the walk orientation must be incoming; right end: the final member's
	// external item, outgoing. Dead sides become NULL ends.
	left := externalEnd(&start.Node, idx, orient, true)
	right := externalEnd(&cur.Node, idx, lastOrient, false)
	// A group is one path or one cycle, so the walk reaches every member;
	// stopping short means the path goes on through a vertex outside the
	// group, that is, labeling split it.
	if visited < len(group) {
		return rec, false, fmt.Errorf("core: contig walk left group at %x (%d of %d members stitched)", right.Nbr, visited, len(group))
	}
	if isCycle {
		left = dbg.Adj{Nbr: dbg.NullID, In: true, PSelf: dbg.L}
		right = dbg.Adj{Nbr: dbg.NullID, In: false, PSelf: dbg.L}
	}

	length := sb.Len()
	if (left.Nbr == dbg.NullID || right.Nbr == dbg.NullID) && length <= tipLen {
		return rec, true, nil
	}
	if !hasCov {
		foldCov(minAdjCov(&start.Node))
	}

	*ordinal++
	id := dbg.ContigID(worker, *ordinal)
	rec = ContigRec{ID: id, Node: dbg.NewNode(id, dbg.KindContig, sb.Seq(), cov, []dbg.Adj{left, right})}
	return rec, false, nil
}

// orientedKmer is a k-mer member's sequence in orientation p as a 2-bit
// word: its ID is its canonical (stored, polarity L) form.
func orientedKmer(id pregel.VertexID, p dbg.Polarity, k int) dna.Kmer {
	m := dbg.KmerOf(id)
	if p != dbg.L {
		m = m.ReverseComplement(k)
	}
	return m
}

// segLen is a member's sequence length in bases.
func segLen(m *member, k int) int {
	return m.Node.Len()
}

// appendMember appends a member's whole sequence in orientation p and
// returns its last k-1 bases.
func appendMember(sb *dna.Builder, m *member, p dbg.Polarity, k int) dna.Kmer {
	if m.Node.Kind == dbg.KindKmer {
		km := orientedKmer(m.ID, p, k)
		for i := 0; i < k; i++ {
			sb.Append(km.At(i, k))
		}
		return dna.Kmer(uint64(km) & dna.KmerMask(k-1))
	}
	seq := m.Node.Oriented(p)
	sb.AppendSeq(seq)
	return dna.KmerFromSeq(seq, seq.Len()-(k-1), k-1)
}

// externalEnd extracts a member's external edge as a contig end item. The
// contig side is always polarity L because the contig's stored sequence is
// the walk orientation (§IV-A: "we always keep the contig-side edge
// polarity to be L").
func externalEnd(n *dbg.Node, idx *groupIndex, orient dbg.Polarity, wantIn bool) dbg.Adj {
	for _, a := range n.Items() {
		if a.Nbr == dbg.NullID || idx.target(a) != nil {
			continue
		}
		e := a.Normalized(orient)
		if e.In == wantIn {
			return dbg.Adj{Nbr: e.Nbr, In: wantIn, PSelf: dbg.L, PNbr: e.PNbr, Cov: e.Cov, NbrLen: e.NbrLen}
		}
	}
	return dbg.Adj{Nbr: dbg.NullID, In: wantIn, PSelf: dbg.L}
}

func minAdjCov(n *dbg.Node) uint32 {
	var cov uint32
	has := false
	for _, a := range n.Items() {
		if a.Nbr != dbg.NullID && (!has || a.Cov < cov) {
			cov, has = a.Cov, true
		}
	}
	return cov
}
