package core

import (
	"strings"
	"testing"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

const stitchK = 5

// stitchSeq spells an unambiguous path: no 5-mer occurs twice in it, on
// either strand.
const stitchSeq = "ACGGTCATTGCAGT"

// orientedID returns the vertex of a k-mer as it reads on the path and the
// polarity the path reads it in (L when the path k-mer is canonical).
func orientedID(s string) (pregel.VertexID, dbg.Polarity) {
	c, canonical := dna.ParseKmer(s).Canonical(len(s))
	if canonical {
		return dbg.KmerID(c), dbg.L
	}
	return dbg.KmerID(c), dbg.H
}

// kmerPath is the op-③ group of the k-mer path spelling seq: one member per
// k-mer, stored canonically, with its path edges and no dead-end items.
func kmerPath(t *testing.T, seq string) []member {
	t.Helper()
	n := len(seq) - stitchK + 1
	ids := make([]pregel.VertexID, n)
	pol := make([]dbg.Polarity, n)
	seen := map[pregel.VertexID]bool{}
	for i := range ids {
		ids[i], pol[i] = orientedID(seq[i : i+stitchK])
		if seen[ids[i]] {
			t.Fatalf("k-mer %s occurs twice in %s", seq[i:i+stitchK], seq)
		}
		seen[ids[i]] = true
	}
	group := make([]member, n)
	for i := range group {
		node := dbg.NewNode(ids[i], dbg.KindKmer, dbg.KmerOf(ids[i]).Seq(stitchK), 3, nil)
		if i > 0 {
			node.AddItem(dbg.Adj{Nbr: ids[i-1], In: true, PSelf: pol[i], PNbr: pol[i-1], Cov: 3, NbrLen: stitchK})
		}
		if i < n-1 {
			node.AddItem(dbg.Adj{Nbr: ids[i+1], PSelf: pol[i], PNbr: pol[i+1], Cov: 3, NbrLen: stitchK})
		}
		group[i] = member{ID: ids[i], label: ids[0], VData: &VData{Node: node}}
	}
	return group
}

// contigPath is a second-round group spelling seq: its first k-mer, then a
// dead-ending contig of the rest, stored as read. A k-mer ID is below every
// contig ID, so the walk starts at the k-mer and enters the contig.
func contigPath(seq string) []member {
	a, pa := orientedID(seq[:stitchK])
	c := dbg.ContigID(0, 1)
	rest := seq[1:]
	return []member{
		{ID: a, label: a, VData: &VData{Node: dbg.NewNode(a, dbg.KindKmer, dbg.KmerOf(a).Seq(stitchK), 2, []dbg.Adj{
			{Nbr: c, PSelf: pa, PNbr: dbg.L, Cov: 2, NbrLen: int32(len(rest))},
		})}},
		{ID: c, label: a, VData: &VData{Node: dbg.NewNode(c, dbg.KindContig, dna.ParseSeq(rest), 4, []dbg.Adj{
			{Nbr: a, In: true, PSelf: dbg.L, PNbr: pa, Cov: 2, NbrLen: stitchK},
			{Nbr: dbg.NullID, PSelf: dbg.L},
		})}},
	}
}

func stitch(group []member) (ContigRec, error) {
	var ord uint32
	var idx groupIndex
	rec, _, err := stitchGroup(0, &ord, &idx, group, stitchK, 0)
	return rec, err
}

// TestStitchGroupSpellsPath: the groups the error cases below damage stitch
// back to their sequence (on either strand) when intact.
func TestStitchGroupSpellsPath(t *testing.T) {
	rc := dna.ParseSeq(stitchSeq).ReverseComplement().String()
	for name, group := range map[string][]member{
		"kmers":  kmerPath(t, stitchSeq),
		"contig": contigPath(stitchSeq),
	} {
		rec, err := stitch(group)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rec.Node.Seq.String(); got != stitchSeq && got != rc {
			t.Errorf("%s: stitched %s, want %s or %s", name, got, stitchSeq, rc)
		}
	}
}

// TestStitchGroupRejectsFlippedKmer: one k-mer member read in the wrong
// orientation by every item that names it, its own included. The walk
// stays self-consistent, so only the (k-1)-mer overlap compare notices.
func TestStitchGroupRejectsFlippedKmer(t *testing.T) {
	group := kmerPath(t, stitchSeq)
	bad := group[4].ID
	for i := range group {
		for j := range group[i].Node.Adj {
			a := &group[i].Node.Adj[j]
			if group[i].ID == bad {
				a.PSelf = a.PSelf.Flip()
			}
			if a.Nbr == bad {
				a.PNbr = a.PNbr.Flip()
			}
		}
	}
	wantStitchError(t, group, "overlap mismatch")
}

// TestStitchGroupRejectsContigMismatch: a contig member whose first k-1
// bases disagree with the k-mer it follows. The contig is the last member
// walked, so only the contig path's overlap compare notices.
func TestStitchGroupRejectsContigMismatch(t *testing.T) {
	group := contigPath(stitchSeq)
	rest := []byte(stitchSeq[1:])
	rest[1] = dna.MustBase(rest[1]).Complement().Byte()
	group[1].Node.Seq = dna.ParseSeq(string(rest))
	wantStitchError(t, group, "overlap mismatch")
}

// TestStitchGroupRejectsNeighbourOutsideGroup: the path's middle edge is
// replaced by edges to vertices outside the group, so the group is two
// paths under one label and the walk cannot reach every member.
func TestStitchGroupRejectsNeighbourOutsideGroup(t *testing.T) {
	group := kmerPath(t, stitchSeq)
	mid := len(group) / 2
	for _, cut := range [][2]int{{mid - 1, mid}, {mid, mid - 1}} {
		m := &group[cut[0]]
		for j := range m.Node.Items() {
			if m.Node.Adj[j].Nbr == group[cut[1]].ID {
				m.Node.Adj[j].Nbr = dbg.ContigID(7, uint32(cut[0]+1))
			}
		}
	}
	wantStitchError(t, group, "contig walk left group")
}

func wantStitchError(t *testing.T, group []member, want string) {
	t.Helper()
	rec, err := stitch(group)
	if err == nil {
		t.Fatalf("stitched %s, want an error containing %q", rec.Node.Seq, want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}
