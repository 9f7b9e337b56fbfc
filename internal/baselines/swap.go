package baselines

import (
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// SWAP is the SWAP-Assembler-style baseline: no coverage filtering (every
// observed (k+1)-mer becomes an edge) and greedy coverage-ratio branch
// resolution — at an ambiguous vertex the walk follows the dominant branch
// when it has at least swapDominance times the coverage of every
// alternative. Its small-step pairwise merging needs more global rounds
// than PPA's O(log n) labeling, charged as extra synchronization below.
// The combination is fast-ish but error-prone: erroneous edges fragment
// contigs and greedy resolution produces chimeric joins, the Table IV
// signature (many misassemblies, short contigs).
type SWAP struct{}

// swapDominance is the greedy branch-resolution ratio.
const swapDominance = 2

// swapRoundFactor models SWAP's semi-extension needing ~3 global
// synchronizations per doubling round, against PPA-LR's 2 supersteps.
const swapRoundFactor = 3

// Name implements Assembler.
func (SWAP) Name() string { return "SWAP-style" }

// Assemble implements Assembler.
func (SWAP) Assemble(readShards [][]string, opt core.Options) (*Result, error) {
	if err := dna.ValidK(opt.K); err != nil {
		return nil, err
	}
	start := time.Now()
	clock := pregel.NewSimClock(opt.Cost)
	k := opt.K
	k1mers := countCanonicalKmers(clock, opt.Workers, readShards, k+1, 0) // no θ filter
	kmers := make(map[dna.Kmer]uint32, len(k1mers))
	for e, cov := range k1mers {
		kmers[canonOf(dna.Kmer(uint64(e)>>2), k)] += cov
		kmers[canonOf(dna.Kmer(uint64(e)&dna.KmerMask(k)), k)] += cov
	}

	type ext struct {
		n   dna.Kmer
		cov uint32
	}
	exts := func(o dna.Kmer) []ext {
		var out []ext
		for c := dna.Base(0); c < 4; c++ {
			e := dna.Kmer(uint64(o)<<2 | uint64(c))
			if cov, ok := k1mers[canonOf(e, k+1)]; ok {
				out = append(out, ext{o.AppendBase(c, k), cov})
			}
		}
		return out
	}
	// Greedy pick: the unique extension, or the dominant one.
	pick := func(o dna.Kmer) (dna.Kmer, bool) {
		cands := exts(o)
		switch len(cands) {
		case 0:
			return 0, false
		case 1:
			return cands[0].n, true
		}
		best, second := -1, -1
		for i, c := range cands {
			if best < 0 || c.cov > cands[best].cov {
				second = best
				best = i
			} else if second < 0 || c.cov > cands[second].cov {
				second = i
			}
		}
		if cands[best].cov >= swapDominance*cands[second].cov {
			return cands[best].n, true
		}
		return 0, false
	}
	// SWAP's semi-extension merges forward greedily without a backward
	// consistency check — the aggressiveness behind its Table-IV
	// misassembly count: a walk that enters a repeat can exit into the
	// wrong flank and produce a chimeric contig.
	step := pick
	steps := 0
	walkStart := time.Now()
	contigs := walkUnitigs(kmers, k, step, func() { steps++ })
	// SWAP's pairwise semi-extension needs ~log2(longest path) doubling
	// rounds and recopies the growing segments in every round, so its
	// merging compute is walk-work x rounds, distributed over workers.
	rounds := 0
	for l := maxContigHops(contigs, k); l > 1; l >>= 1 {
		rounds++
	}
	if rounds < 1 {
		rounds = 1
	}
	walkNs := float64(time.Since(walkStart).Nanoseconds()) * float64(rounds) / float64(opt.Workers)
	per := make([]float64, opt.Workers)
	for i := range per {
		per[i] = walkNs
	}
	clock.ChargeSuperstep(per, make([]float64, opt.Workers))
	// Each round takes ~3 global synchronizations and reshuffles the
	// segment/edge tables (small MPI messages, ~64 B effective each).
	latency := float64(clock.Model().SuperstepLatency.Nanoseconds())
	clock.ChargeSerial(float64(swapRoundFactor*rounds) * latency)
	clock.ChargeTransfer(float64(rounds) * 2 * float64(len(kmers)) * 64 / float64(opt.Workers))

	out := &Result{}
	for _, c := range contigs {
		if c.Len() >= 2*k {
			out.Contigs = append(out.Contigs, c)
		}
	}
	out.SimSeconds = clock.Seconds()
	out.WallSeconds = time.Since(start).Seconds()
	return out, nil
}
