// Scaffolding walkthrough: simulate paired-end reads from a repeat-bearing
// genome, assemble contigs with the PPA workflow ①–⑥ (contigs break at every
// planted repeat), then run the paired-end scaffolding stage ⑦ — mate
// placement, link bundling, the ambiguity-filter handshake, and the ordering
// wave, whose winning endpoint labels each chain and orients its contigs —
// and evaluate the scaffolds against the known reference.
//
// Run with: go run ./examples/scaffolding
package main

import (
	"fmt"
	"log"

	"ppaassembler/internal/core"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/quality"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
)

func main() {
	// 1. A 60 kbp reference with planted 300 bp repeats: each repeat pair
	// collapses into one DBG path, so the assembler's contigs stop at every
	// repeat junction — exactly the breaks paired ends can bridge.
	ref, err := genome.Generate(genome.Spec{
		Name: "scaffolding", Length: 60_000, Repeats: 4, RepeatLen: 300, Seed: 17,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Paired reads: 2x100 bp, 700 ± 60 bp inserts — long enough that a
	// fragment can span a whole repeat with both mates anchored in unique
	// flanking sequence.
	const insertMean, insertSD = 700, 60
	simPairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 25, SubRate: 0.001, Seed: 18},
		InsertMean: insertMean, InsertSD: insertSD,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d read pairs from a %d bp reference\n", len(simPairs), ref.Len())

	// 3. Assemble. The repeats fragment the assembly into several contigs.
	opt := core.DefaultOptions(4)
	opt.K = 21
	reads := readsim.Interleave(simPairs)
	res, err := core.Assemble(pregel.ShardSlice(reads, opt.Workers), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d contigs (simulated %.2fs)\n", len(res.Contigs), res.SimSeconds)

	// 4. Scaffold stage ⑦ on the same simulated cluster clock. The insert
	// size is deliberately left at zero: the scaffolder estimates it from
	// pairs whose mates land on one contig.
	pairs := make([]scaffold.Pair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = scaffold.Pair{R1: p.R1, R2: p.R2}
	}
	sres, contigs, err := core.ScaffoldContigs(res, opt, pairs, scaffold.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated insert: %.0f ± %.0f bp (true: %d ± %d)\n",
		sres.InsertMean, sres.InsertSD, insertMean, insertSD)
	fmt.Printf("links: %d bundles observed, %d kept after filtering\n",
		sres.LinkBundles, sres.LinksKept)
	for _, st := range sres.Jobs {
		fmt.Printf("  job %-20s %2d supersteps, %5d messages\n", st.Name, st.Supersteps, st.Messages)
	}
	multi := 0
	for _, s := range sres.Scaffolds {
		if s.Len() > 1 {
			multi++
			fmt.Printf("scaffold of %d contigs, gaps %v, span %d bp\n",
				s.Len(), s.Gaps, s.Span(contigs))
		}
	}
	fmt.Printf("%d scaffolds (%d multi-contig), pipeline simulated time %.2fs\n",
		len(sres.Scaffolds), multi, res.SimSeconds)

	// 5. Evaluate against the known reference: every join must be
	// consistent, with gaps sized to within ~2 insert standard deviations.
	recs := scaffold.Records(contigs, sres.Scaffolds)
	parts := make([]quality.ScaffoldParts, len(recs))
	for i, r := range recs {
		parts[i] = quality.ParseScaffold(r.Seq)
	}
	rep := quality.EvaluateScaffolds(parts, ref, 0, 2*insertSD)
	fmt.Printf("scaffold N50 %d (largest %d), %d joins, %d misjoins, mean gap error %.0f bp\n",
		rep.ScaffoldN50, rep.LargestScaffold, rep.Joins, rep.Misjoins, rep.MeanAbsGapError)
	if multi > 0 && rep.Misjoins == 0 && rep.GapsOutOfTolerance == 0 {
		fmt.Println("OK: repeats bridged with correctly sized gaps and no misjoins")
	} else {
		fmt.Println("note: scaffolding left breaks unbridged or mis-sized (try more coverage)")
	}
}
