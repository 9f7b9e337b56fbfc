package scaffold

import (
	"math"

	"ppaassembler/internal/pregel"
)

// linkKey identifies one oriented contig join: end EA of contig A meets end
// EB of contig B, canonicalized so A < B and both observation directions of
// a pair bundle under one key. A == B (with EA == EB == L) instead carries a
// same-contig insert-size observation.
type linkKey struct {
	A, B   pregel.VertexID
	EA, EB End
}

func (k linkKey) isInsertSample() bool { return k.A == k.B }

func linkKeyHash(k linkKey) uint64 {
	h := uint64(k.A)*0x9E3779B97F4A7C15 ^ uint64(k.B)
	h ^= uint64(k.EA)<<1 | uint64(k.EB)
	return pregel.Uint64Hash(h)
}

func linkKeyLess(a, b linkKey) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.EA != b.EA {
		return a.EA < b.EA
	}
	return a.EB < b.EB
}

// linkBundle is one reduced link: every pair observation of one oriented
// join. span records, per pair, the summed distances of the two mates to
// their joined contig ends; the gap estimate for the join is
// insertMean - mean(span).
type linkBundle struct {
	key        linkKey
	n          int32
	sum, sumSq float64
}

// sampleStats accumulates same-contig insert observations.
type sampleStats struct {
	n          int64
	sum, sumSq float64
}

func (s *sampleStats) add(n int64, sum, sumSq float64) {
	s.n += n
	s.sum += sum
	s.sumSq += sumSq
}

func (s *sampleStats) mean() float64 { return s.sum / float64(s.n) }

func (s *sampleStats) sd() float64 {
	m := s.mean()
	return math.Sqrt(math.Max(0, s.sumSq/float64(s.n)-m*m))
}

// bundleLinks is the mapping-and-link-building mini-MapReduce: map places
// both mates of each pair and emits either a link observation (mates on two
// contigs) or an insert-size sample (mates properly oriented on one contig);
// reduce bundles observations per oriented join. Mappers run concurrently
// under opt.Parallel, so the pair counters accumulate per map worker and
// fold into res after the shuffle.
func bundleLinks(ix *contigIndex, pairs []Pair, opt Options, clock *pregel.SimClock, res *Result) ([]linkBundle, sampleStats, *pregel.Stats) {
	shards := pregel.ShardSlice(pairs, opt.Workers)
	type pairCounts struct{ placed, sameContig, linking int }
	counts := make([]pairCounts, opt.Workers)
	votes := make([][]vote, opt.Workers) // place's scratch, one per map worker
	out, st := pregel.MapReduceCfg(
		clock, pregel.MRConfig{
			Workers: opt.Workers, PairBytes: 24, Parallel: opt.Parallel, Faults: opt.Faults,
			Name: opt.JobPrefix + "links", Tracer: opt.Tracer, Metrics: opt.Metrics,
		},
		shards, // 24 ≈ key + span on the wire
		func(w int, p Pair, emit func(linkKey, float64)) {
			// A pair counts only with both mates placed, so an unplaced
			// first mate ends it before the second is mapped.
			p1, ok := ix.place(p.R1, &votes[w])
			if !ok {
				return
			}
			p2, ok := ix.place(p.R2, &votes[w])
			if !ok {
				return
			}
			counts[w].placed++
			c1, c2 := &ix.contigs[p1.contig], &ix.contigs[p2.contig]
			if p1.contig == p2.contig {
				// Same contig: a properly oriented (FR) pair measures the
				// insert directly — from the forward mate's start to the
				// reverse mate's end.
				if p1.fwd == p2.fwd {
					return // anomalous orientation
				}
				fwd, rev, revLen := p1, p2, len(p.R2)
				if p2.fwd {
					fwd, rev, revLen = p2, p1, len(p.R1)
				}
				ins := int(rev.pos) + revLen - int(fwd.pos)
				if ins <= 0 {
					return // everted pair
				}
				counts[w].sameContig++
				emit(linkKey{A: c1.ID, B: c1.ID, EA: L, EB: L}, float64(ins))
				return
			}
			e1, d1 := endpoint(p1, len(p.R1), c1.Seq.Len())
			e2, d2 := endpoint(p2, len(p.R2), c2.Seq.Len())
			key := linkKey{A: c1.ID, EA: e1, B: c2.ID, EB: e2}
			if key.B < key.A {
				key = linkKey{A: key.B, EA: key.EB, B: key.A, EB: key.EA}
			}
			counts[w].linking++
			emit(key, float64(d1+d2))
		},
		linkKeyHash,
		linkKeyLess,
		func(w int, key linkKey, spans []float64, emit func(linkBundle)) {
			b := linkBundle{key: key, n: int32(len(spans))}
			for _, s := range spans {
				b.sum += s
				b.sumSq += s * s
			}
			emit(b)
		},
	)
	st.Name = "scaffold-links-mr"
	for _, c := range counts {
		res.PairsPlaced += c.placed
		res.PairsSameContig += c.sameContig
		res.PairsLinking += c.linking
	}

	var links []linkBundle
	var inserts sampleStats
	for _, shard := range out {
		for _, b := range shard {
			if b.key.isInsertSample() {
				inserts.add(int64(b.n), b.sum, b.sumSq)
				continue
			}
			links = append(links, b)
		}
	}
	return links, inserts, st
}

// buildLinkGraph creates the contig-link Pregel graph: one vertex per
// included contig, with the bundled links attached to both endpoint vertices
// as filter-job candidates.
func buildLinkGraph(contigs []Contig, included []bool, links []linkBundle, insertMean float64, cfg pregel.Config, clock *pregel.SimClock) *pregel.Graph[SVertex, SMsg] {
	g := pregel.NewGraph[SVertex, SMsg](cfg)
	g.UseClock(clock)
	cand := map[pregel.VertexID][]Link{}
	for _, b := range links {
		gap := insertMean - b.sum/float64(b.n)
		cand[b.key.A] = append(cand[b.key.A], Link{
			Nbr: b.key.B, SelfEnd: b.key.EA, NbrEnd: b.key.EB, Weight: b.n, Gap: gap,
		})
		cand[b.key.B] = append(cand[b.key.B], Link{
			Nbr: b.key.A, SelfEnd: b.key.EB, NbrEnd: b.key.EA, Weight: b.n, Gap: gap,
		})
	}
	for i, c := range contigs {
		if included[i] {
			g.AddVertex(c.ID, SVertex{Len: int32(c.Seq.Len()), Cand: cand[c.ID]})
		}
	}
	return g
}
