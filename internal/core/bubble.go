package core

import (
	"strings"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// BubbleResult is the output of operation ④.
type BubbleResult struct {
	// Contigs holds the surviving contigs, per worker.
	Contigs [][]ContigRec
	// Pruned counts contigs removed as low-coverage bubble arms.
	Pruned int
	Stats  *pregel.Stats
}

// endPair is the shuffle key of operation ④: the sorted IDs of a contig's
// two ambiguous end vertices.
type endPair struct{ Lo, Hi pregel.VertexID }

func pairHash(p endPair) uint64 {
	return pregel.Uint64Hash(uint64(p.Lo)*0x9E3779B97F4A7C15 ^ uint64(p.Hi))
}

func pairLess(a, b endPair) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return a.Hi < b.Hi
}

// FilterBubbles is operation ④ (§IV-B): a mini-MapReduce that groups
// contigs sharing both (ambiguous) end vertices and, within each group,
// prunes the lower-coverage arm of any pair whose sequences are within
// maxEditDist of each other (after orienting both arms in the same
// end-to-end direction). Contigs with a dead end do not participate; they
// pass through unchanged.
//
// minArmCov > 0 enables the coverage-threshold pruning the paper's §V
// suggests as a user customization: an arm with coverage below minArmCov
// is pruned whenever a stronger parallel arm exists, regardless of edit
// distance.
//
// The job runs under cfg (see pregel.MapReduce) and is named after its
// plan position (cfg.JobPrefix without its trailing dot, e.g. "s03.bubble").
func FilterBubbles(clock *pregel.SimClock, cfg pregel.Config, contigs [][]ContigRec, maxEditDist int, minArmCov uint32) (*BubbleResult, error) {
	res := &BubbleResult{}
	type keyed struct {
		rec      ContigRec
		inBubble bool
	}
	prunedPerWorker := make([]int, max(cfg.Workers, 1))
	out, st := pregel.MapReduce(
		clock, cfg,
		pregel.MRConfig{Name: strings.TrimSuffix(cfg.JobPrefix, "."), PairBytes: 64}, // ≈ a contig record on the wire
		contigs,
		func(w int, c ContigRec, emit func(endPair, keyed)) {
			nb1, nb2 := c.Node.Adj[0].Nbr, c.Node.Adj[1].Nbr
			if nb1 == dbg.NullID || nb2 == dbg.NullID {
				// Not a bubble candidate: route to a unique key so it
				// passes through reduce untouched.
				emit(endPair{Lo: c.ID, Hi: dbg.NullID}, keyed{rec: c})
				return
			}
			lo, hi := nb1, nb2
			if hi < lo {
				lo, hi = hi, lo
			}
			emit(endPair{Lo: lo, Hi: hi}, keyed{rec: c, inBubble: true})
		},
		pairHash,
		pairLess,
		func(w int, key endPair, group []keyed, emit func(ContigRec)) {
			if len(group) == 1 || !group[0].inBubble {
				for _, kd := range group {
					emit(kd.rec)
				}
				return
			}
			pruned := make([]bool, len(group))
			seqs := make([]dna.Seq, len(group))
			maxCov := uint32(0)
			for i, kd := range group {
				seqs[i] = orientArm(kd.rec, key)
				if kd.rec.Node.Cov > maxCov {
					maxCov = kd.rec.Node.Cov
				}
			}
			if minArmCov > 0 {
				for i, kd := range group {
					if kd.rec.Node.Cov < minArmCov && kd.rec.Node.Cov < maxCov {
						pruned[i] = true
					}
				}
			}
			for i := range group {
				if pruned[i] {
					continue
				}
				for j := i + 1; j < len(group); j++ {
					if pruned[j] {
						continue
					}
					d := dna.EditDistanceAtMost(seqs[i], seqs[j], maxEditDist-1)
					if key.Lo == key.Hi {
						// Self-pair ends: orientation is ambiguous; also
						// compare against the reverse complement.
						d2 := dna.EditDistanceAtMost(seqs[i], seqs[j].ReverseComplement(), maxEditDist-1)
						if d2 < d {
							d = d2
						}
					}
					if d >= maxEditDist {
						continue
					}
					// Similar arms: prune the lower-coverage one.
					if group[i].rec.Node.Cov < group[j].rec.Node.Cov {
						pruned[i] = true
					} else {
						pruned[j] = true
					}
				}
				if pruned[i] {
					continue
				}
			}
			for i, kd := range group {
				if pruned[i] {
					prunedPerWorker[w]++
					continue
				}
				emit(kd.rec)
			}
		},
	)
	for _, p := range prunedPerWorker {
		res.Pruned += p
	}
	res.Contigs = out
	res.Stats = st
	return res, nil
}

// orientArm returns the contig sequence reading from key.Lo to key.Hi: as
// stored when the in-end neighbor is Lo, reverse-complemented otherwise.
func orientArm(c ContigRec, key endPair) dna.Seq {
	if c.Node.Adj[0].Nbr == key.Lo {
		return c.Node.Seq
	}
	return c.Node.Seq.ReverseComplement()
}
