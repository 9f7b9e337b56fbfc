package scaffold

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// waveFixture is one random contig-link graph: contigs with unique, sparse
// IDs and the candidate links filterLinks starts from.
type waveFixture struct {
	contigs []Contig
	cand    [][]Link
}

// randomWaveFixture builds reciprocal strong links forming paths, cycles
// (2-cycles included), singletons and self-loops (a contig's L joined to
// its own R closes a cycle; an end joined to itself leaves a one-ended
// hairpin), each member placed in a random orientation, and then adds
// noise: weak candidates below minSupport, which filterLinks ignores, and
// strong ones to random contigs, which make ends ambiguous or unreciprocated
// so the handshake drops them.
func randomWaveFixture(rng *rand.Rand, minSupport int32) waveFixture {
	var f waveFixture
	seen := map[pregel.VertexID]bool{}
	add := func() int {
		id := pregel.VertexID(1 + rng.Int63n(1<<40))
		for seen[id] {
			id = pregel.VertexID(1 + rng.Int63n(1<<40))
		}
		seen[id] = true
		seq := make([]byte, 1+rng.Intn(60))
		for i := range seq {
			seq[i] = "ACGT"[rng.Intn(4)]
		}
		f.contigs = append(f.contigs, Contig{ID: id, Name: fmt.Sprint(id), Seq: dna.ParseSeq(string(seq))})
		f.cand = append(f.cand, nil)
		return len(f.contigs) - 1
	}
	strong := func() int32 { return minSupport + rng.Int31n(8) }
	// join adds the strong candidate pair a.ea — b.eb, each side with its
	// own gap estimate so the test sees which side's gap the wave carries.
	join := func(a int, ea End, b int, eb End) {
		w := strong()
		f.cand[a] = append(f.cand[a], Link{Nbr: f.contigs[b].ID, SelfEnd: ea, NbrEnd: eb, Weight: w, Gap: rng.Float64()*220 - 20})
		if a != b || ea != eb {
			f.cand[b] = append(f.cand[b], Link{Nbr: f.contigs[a].ID, SelfEnd: eb, NbrEnd: ea, Weight: w, Gap: rng.Float64()*220 - 20})
		}
	}
	// chain adds m contigs in random orientations, each one's right-facing
	// end joined to the next one's left-facing end, and returns them.
	chain := func(m int) (members []int, flip []bool) {
		for i := 0; i < m; i++ {
			members = append(members, add())
			flip = append(flip, rng.Intn(2) == 0)
			if i > 0 {
				join(members[i-1], facing(flip[i-1], R), members[i], facing(flip[i], L))
			}
		}
		return members, flip
	}
	for pieces := 1 + rng.Intn(10); pieces > 0; pieces-- {
		switch rng.Intn(6) {
		case 0: // singleton
			add()
		case 1: // path
			chain(2 + rng.Intn(6))
		case 2: // cycle, 2-cycles included
			m, fl := chain(2 + rng.Intn(6))
			last := len(m) - 1
			join(m[last], facing(fl[last], R), m[0], facing(fl[0], L))
		case 3: // a contig's L joined to its own R: a one-contig cycle
			a := add()
			join(a, R, a, L)
		case 4: // hairpin: a path whose last free end is joined to itself
			m, fl := chain(1 + rng.Intn(4))
			last := len(m) - 1
			e := facing(fl[last], R)
			join(m[last], e, m[last], e)
		case 5: // a path hanging off a hairpin at both ends: no free end
			m, fl := chain(1 + rng.Intn(4))
			last := len(m) - 1
			join(m[0], facing(fl[0], L), m[0], facing(fl[0], L))
			join(m[last], facing(fl[last], R), m[last], facing(fl[last], R))
		}
	}
	for noise := rng.Intn(4); noise > 0; noise-- {
		a, b := rng.Intn(len(f.contigs)), rng.Intn(len(f.contigs))
		w := strong()
		if rng.Intn(2) == 0 {
			w = 1 + rng.Int31n(minSupport-1)
		}
		f.cand[a] = append(f.cand[a], Link{Nbr: f.contigs[b].ID, SelfEnd: End(rng.Intn(2)), NbrEnd: End(rng.Intn(2)), Weight: w, Gap: 50})
	}
	return f
}

// facing returns the end of a contig placed with the given flip that faces
// side (L = leftwards, R = rightwards) in the scaffold.
func facing(flip bool, side End) End {
	if flip {
		return side.opposite()
	}
	return side
}

// walkChains is the sequential reference for orderChains + collect over the
// links filterLinks kept. A connected component has at most one link per
// contig end, so walking end to end from a free end traces it whole. A
// component with a free end is a path: its label is the smallest ID among
// contigs with a free end, and its scaffold is the walk from there, each
// member flipped when entered through R and its start the sum of the
// lengths and rounded gaps before it. A component without one is a cycle,
// emitted as singletons. wave maps every path member to its label.
func walkChains(t *testing.T, contigs []Contig, kept map[pregel.VertexID]SVertex) (scafs []Scaffold, wave map[pregel.VertexID]pregel.VertexID, cycleContigs int) {
	t.Helper()
	idx := map[pregel.VertexID]int{}
	for i, c := range contigs {
		idx[c.ID] = i
	}
	links := func(v SVertex) int {
		n := 0
		for _, h := range v.Has {
			if h {
				n++
			}
		}
		return n
	}
	wave = map[pregel.VertexID]pregel.VertexID{}
	done := map[pregel.VertexID]bool{}
	for _, c := range contigs {
		if done[c.ID] {
			continue
		}
		// Collect the component with a plain graph search.
		comp := []pregel.VertexID{c.ID}
		done[c.ID] = true
		for i := 0; i < len(comp); i++ {
			v := kept[comp[i]]
			for e, h := range v.Has {
				if !h {
					continue
				}
				l := v.Keep[e]
				if back := kept[l.Nbr]; !back.Has[l.NbrEnd] || back.Keep[l.NbrEnd].Nbr != comp[i] || back.Keep[l.NbrEnd].NbrEnd != End(e) {
					t.Fatalf("kept link %x.%v -> %x.%v is not reciprocal", comp[i], End(e), l.Nbr, l.NbrEnd)
				}
				if !done[l.Nbr] {
					done[l.Nbr] = true
					comp = append(comp, l.Nbr)
				}
			}
		}
		head := noPred
		for _, id := range comp {
			if links(kept[id]) < 2 && id < head {
				head = id
			}
		}
		if head == noPred {
			for _, id := range comp {
				cycleContigs++
				scafs = append(scafs, Scaffold{Contigs: []int{idx[id]}, Flip: []bool{false}, Starts: []int{0}})
			}
			continue
		}
		hv := kept[head]
		exit := L
		if hv.Has[R] {
			exit = R
		}
		s := Scaffold{Contigs: []int{idx[head]}, Flip: []bool{links(hv) == 1 && exit == L}, Starts: []int{0}}
		on := map[pregel.VertexID]bool{head: true}
		for cur := head; kept[cur].Has[exit]; {
			l := kept[cur].Keep[exit]
			if on[l.Nbr] {
				break // a hairpin's end joined to itself
			}
			on[l.Nbr] = true
			gap := int(math.Round(l.Gap))
			n := len(s.Contigs)
			s.Gaps = append(s.Gaps, gap)
			s.Starts = append(s.Starts, s.Starts[n-1]+contigs[s.Contigs[n-1]].Seq.Len()+gap)
			s.Contigs = append(s.Contigs, idx[l.Nbr])
			s.Flip = append(s.Flip, l.NbrEnd == R)
			cur, exit = l.Nbr, l.NbrEnd.opposite()
		}
		if len(s.Contigs) != len(comp) {
			t.Fatalf("walk from %x covered %d of %d contigs", head, len(s.Contigs), len(comp))
		}
		for _, id := range comp {
			wave[id] = head
		}
		scafs = append(scafs, s)
	}
	sort.Slice(scafs, func(a, b int) bool { return scafs[a].Contigs[0] < scafs[b].Contigs[0] })
	return scafs, wave, cycleContigs
}

// TestPropWaveMatchesComponentWalk checks that the ordering wave alone gives
// the chains and coordinates: on random reciprocal link graphs, at several
// worker counts, a contig is assigned exactly when its component is a path,
// two assigned contigs share a Wave exactly when they share a component,
// and collect's scaffolds (order, flips, gaps, starts) equal the sequential
// walk's.
func TestPropWaveMatchesComponentWalk(t *testing.T) {
	const minSupport = 3
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		f := randomWaveFixture(rng, minSupport)
		included := make([]bool, len(f.contigs))
		for i := range included {
			included[i] = true
		}
		var want []Scaffold
		var wantWave map[pregel.VertexID]pregel.VertexID
		var wantCycles int
		for _, workers := range []int{1, 4, 7} {
			g := pregel.NewGraph[SVertex, SMsg](pregel.Config{Workers: workers})
			for i, c := range f.contigs {
				g.AddVertex(c.ID, SVertex{Len: int32(c.Seq.Len()), Cand: f.cand[i]})
			}
			if _, err := filterLinks(g, minSupport); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				kept := map[pregel.VertexID]SVertex{}
				g.ForEach(func(id pregel.VertexID, v *SVertex) { kept[id] = *v })
				want, wantWave, wantCycles = walkChains(t, f.contigs, kept)
			}
			if _, err := orderChains(g); err != nil {
				t.Fatal(err)
			}
			g.ForEach(func(id pregel.VertexID, v *SVertex) {
				w, path := wantWave[id]
				if v.Assigned != path || (path && v.Wave != w) {
					t.Fatalf("trial %d, %d workers: contig %x assigned=%v wave=%x, want assigned=%v wave=%x",
						trial, workers, id, v.Assigned, v.Wave, path, w)
				}
			})
			res := &Result{Stats: &pregel.Stats{}}
			if err := collect(g, f.contigs, included, res); err != nil {
				t.Fatalf("trial %d, %d workers: %v", trial, workers, err)
			}
			if res.CycleContigs != wantCycles || !reflect.DeepEqual(res.Scaffolds, want) {
				t.Fatalf("trial %d, %d workers: scaffolds\n got %+v (%d cycle contigs)\nwant %+v (%d)",
					trial, workers, res.Scaffolds, res.CycleContigs, want, wantCycles)
			}
		}
	}
}
