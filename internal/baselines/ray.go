package baselines

import (
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// Ray is the Ray-style baseline: greedy seed-and-extend over a DBG whose
// edges are verified by observed (k+1)-mers. Every extension step performs
// a remote k-mer-table lookup — Ray's defining communication pattern — so
// the simulated clock charges one round trip per step (amortized over a
// small pipelining window). That per-step cost is what makes Ray an order
// of magnitude slower than the bulk-synchronous assemblers in Figure 12.
type Ray struct{}

// rayRoundsPerHop models Ray's query/vote/commit exchange per extension
// step; rayMsgsPerStep the per-step candidate-lookup traffic.
const (
	rayRoundsPerHop = 3
	rayMsgsPerStep  = 4
)

// Name implements Assembler.
func (Ray) Name() string { return "Ray-style" }

// Assemble implements Assembler.
func (Ray) Assemble(readShards [][]string, opt core.Options) (*Result, error) {
	if err := dna.ValidK(opt.K); err != nil {
		return nil, err
	}
	start := time.Now()
	clock := pregel.NewSimClock(opt.Cost)
	k := opt.K
	// Ray counts (k+1)-mers to verify edges and k-mers for seeds; fold
	// both into one pass over the (k+1)-mers.
	k1mers := countCanonicalKmers(clock, opt.Workers, readShards, k+1, opt.Theta)
	kmers := make(map[dna.Kmer]uint32, len(k1mers))
	for e, cov := range k1mers {
		p := canonOf(dna.Kmer(uint64(e)>>2), k)
		s := canonOf(dna.Kmer(uint64(e)&dna.KmerMask(k)), k)
		kmers[p] += cov
		kmers[s] += cov
	}

	succs := func(o dna.Kmer) []dna.Kmer {
		var out []dna.Kmer
		for c := dna.Base(0); c < 4; c++ {
			e := dna.Kmer(uint64(o)<<2 | uint64(c))
			if _, ok := k1mers[canonOf(e, k+1)]; ok {
				out = append(out, o.AppendBase(c, k))
			}
		}
		return out
	}
	steps := 0
	walkStart := time.Now()
	contigs := walkUnitigs(kmers, k, func(o dna.Kmer) (dna.Kmer, bool) {
		return uniqueExtension(o, k, succs)
	}, func() { steps++ })
	// The walk compute distributes over workers (seeds are partitioned).
	walkNs := float64(time.Since(walkStart).Nanoseconds()) / float64(opt.Workers)
	per := make([]float64, opt.Workers)
	for i := range per {
		per[i] = walkNs
	}
	clock.ChargeSuperstep(per, make([]float64, opt.Workers))
	// Ray advances every seed extension one k-mer per round, and each hop
	// is a query/vote/commit exchange (~3 round trips). The global round
	// count is therefore 3x the longest contig's hop length — the
	// latency wall that leaves Ray an order of magnitude slower in
	// Figure 12. Redundant per-seed message volume is charged as
	// transfer over the workers' links.
	latency := float64(clock.Model().SuperstepLatency.Nanoseconds())
	clock.ChargeSerial(float64(rayRoundsPerHop*maxContigHops(contigs, k)) * latency)
	clock.ChargeTransfer(float64(steps) * rayMsgsPerStep * 16 / float64(opt.Workers))

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
