package baselines

import (
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// ABySS is the ABySS-style baseline (§V of the paper): the de Bruijn graph
// is built by letting each k-mer probe its 8 possible neighbors for
// existence, without verifying that the connecting (k+1)-mer was ever
// observed in a read. Probing manufactures spurious edges (extra ambiguity,
// shorter contigs) and, occasionally, chimeric joins. The adjacency/walk
// stage runs on a coordinator, which is why the analogue's runtime barely
// improves with more workers — the behaviour Figure 12 reports for ABySS.
type ABySS struct{}

// Name implements Assembler.
func (ABySS) Name() string { return "ABySS-style" }

// Assemble implements Assembler.
func (ABySS) Assemble(readShards [][]string, opt core.Options) (*Result, error) {
	if err := dna.ValidK(opt.K); err != nil {
		return nil, err
	}
	start := time.Now()
	clock := pregel.NewSimClock(opt.Cost)
	k := opt.K
	kmers := countCanonicalKmers(clock, opt.Workers, readShards, k, opt.Theta)

	// Probing successor rule: an extension exists iff the probed k-mer
	// exists anywhere in the k-mer set — the (k+1)-mer is never checked.
	succs := func(o dna.Kmer) []dna.Kmer {
		var out []dna.Kmer
		for c := dna.Base(0); c < 4; c++ {
			n := o.AppendBase(c, k)
			if _, ok := kmers[canonOf(n, k)]; ok {
				out = append(out, n)
			}
		}
		return out
	}
	serialStart := time.Now()
	contigs := walkUnitigs(kmers, k, func(o dna.Kmer) (dna.Kmer, bool) {
		return uniqueExtension(o, k, succs)
	}, nil)
	clock.ChargeSerial(float64(time.Since(serialStart).Nanoseconds()))
	// ABySS extends contigs one k-mer per communication round, so the
	// round count is the longest contig's hop length — a latency floor
	// that no amount of workers reduces (why Figure 12 shows ABySS flat
	// in the number of workers). Probe traffic is packeted (1 KB batches,
	// per the paper's §I discussion of ABySS) and charged as transfer.
	latency := float64(clock.Model().SuperstepLatency.Nanoseconds())
	clock.ChargeSerial(float64(maxContigHops(contigs, k)) * latency)
	clock.ChargeTransfer(float64(len(kmers)) * 8 * 16 / float64(opt.Workers))

	tip := opt.TipLen
	if tip <= 0 {
		tip = 2 * k
	}
	out := &Result{}
	for _, c := range contigs {
		if c.Len() > tip {
			out.Contigs = append(out.Contigs, c)
		}
	}
	out.SimSeconds = clock.Seconds()
	out.WallSeconds = time.Since(start).Seconds()
	return out, nil
}

func canonOf(m dna.Kmer, k int) dna.Kmer {
	c, _ := m.Canonical(k)
	return c
}
