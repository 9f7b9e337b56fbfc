// Package baselines implements algorithmic analogues of the three parallel
// assemblers the paper compares against (§V): ABySS, Ray and
// SWAP-Assembler. The real systems are external C++/MPI programs; each
// analogue here reproduces the published algorithmic signature that the
// paper's analysis attributes the system's behaviour to:
//
//   - ABySS-style: the DBG is built by probing all 8 possible k-mer
//     neighbors for existence (the paper's §V critique: an edge is created
//     between "CA" and "AA" even though no read contains "CAA"), which
//     manufactures spurious ambiguity; its message-packeting communication
//     stage is coordinated serially, which is what makes its runtime
//     insensitive to the number of workers (Figure 12).
//   - Ray-style: greedy seed-and-extend over verified (k+1)-mer edges with
//     a per-step remote k-mer lookup — the per-extension round trips are
//     what make Ray an order of magnitude slower (Figure 12).
//   - SWAP-style: no coverage filtering and greedy coverage-ratio branch
//     resolution with small-step pairwise merging rounds — fast-ish but
//     error-prone (Table IV: many misassemblies, short contigs).
//
// All three charge the same simulated-cluster clock as the PPA pipeline, so
// end-to-end times are comparable (experiments E2/E3).
package baselines

import (
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// Result is a baseline assembly outcome.
type Result struct {
	Contigs                 []dna.Seq
	SimSeconds, WallSeconds float64
}

// Assembler is the common interface over PPA-assembler and the baselines.
// Every assembler takes the pipeline's own options; the baselines read K,
// Theta, TipLen, Workers and Cost from them.
type Assembler interface {
	Name() string
	Assemble(readShards [][]string, opt core.Options) (*Result, error)
}

// PPA adapts the core pipeline to the Assembler interface.
type PPA struct{}

// Name implements Assembler.
func (PPA) Name() string { return "PPA-assembler" }

// Assemble implements Assembler by running the workflow opt spells
// (①②③④⑤⑥②③ with two Rounds).
func (PPA) Assemble(readShards [][]string, opt core.Options) (*Result, error) {
	res, err := core.Assemble(readShards, opt)
	if err != nil {
		return nil, err
	}
	out := &Result{SimSeconds: res.SimSeconds, WallSeconds: res.WallSeconds}
	for _, c := range res.Contigs {
		out.Contigs = append(out.Contigs, c.Node.Seq)
	}
	return out, nil
}

// countCanonicalKmers counts canonical k-mers across the sharded reads,
// measuring per-worker map time and charging the clock one shuffle round
// (the distributed counting stage every assembler shares).
func countCanonicalKmers(clock *pregel.SimClock, workers int, shards [][]string, k int, theta uint32) map[dna.Kmer]uint32 {
	perWorker := make([]map[dna.Kmer]uint32, workers)
	computeNs := make([]float64, workers)
	bytesOut := make([]float64, workers)
	for w := 0; w < workers; w++ {
		perWorker[w] = make(map[dna.Kmer]uint32)
		if w >= len(shards) {
			continue
		}
		start := time.Now()
		for _, read := range shards[w] {
			eachWindow(read, k, func(m dna.Kmer) {
				c, _ := m.Canonical(k)
				perWorker[w][c]++
			})
		}
		computeNs[w] = float64(time.Since(start).Nanoseconds())
		bytesOut[w] = float64(len(perWorker[w])) * 12
	}
	clock.ChargeSuperstep(computeNs, bytesOut)
	merged := make(map[dna.Kmer]uint32)
	start := time.Now()
	for _, m := range perWorker {
		for kk, c := range m {
			merged[kk] += c
		}
	}
	for kk, c := range merged {
		if c <= theta {
			delete(merged, kk)
		}
	}
	// The merge itself is distributed by key in a real system: charge it
	// as one balanced round.
	per := float64(time.Since(start).Nanoseconds()) / float64(workers)
	balanced := make([]float64, workers)
	for i := range balanced {
		balanced[i] = per
	}
	clock.ChargeSuperstep(balanced, make([]float64, workers))
	return merged
}

// eachWindow slides a k-wide window over maximal ACGT runs.
func eachWindow(read string, k int, fn func(dna.Kmer)) {
	var cur uint64
	run := 0
	mask := dna.KmerMask(k)
	for i := 0; i < len(read); i++ {
		b, ok := dna.BaseFromByte(read[i])
		if !ok {
			run, cur = 0, 0
			continue
		}
		cur = (cur<<2 | uint64(b)) & mask
		run++
		if run >= k {
			fn(dna.Kmer(cur))
		}
	}
}

// maxContigHops returns the longest contig's length in k-mer hops — the
// superstep count of any system that extends contigs one vertex per
// superstep (ABySS and Ray both do; the paper's §V contrasts this with
// PPA-assembler's O(log n)-superstep labeling).
func maxContigHops(contigs []dna.Seq, k int) int {
	longest := 0
	for _, c := range contigs {
		if h := c.Len() - k + 1; h > longest {
			longest = h
		}
	}
	if longest < 1 {
		longest = 1
	}
	return longest
}
