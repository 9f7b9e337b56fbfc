package core

import (
	"bytes"
	"sort"
	"testing"

	"ppaassembler/internal/genome"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
)

// exampleGenomeReads builds the deterministic paired-read set shared by the
// determinism tests: a repeat-bearing reference, so scaffolding has real
// joins to make.
func exampleGenomeReads(t *testing.T) ([]string, []scaffold.Pair) {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{
		Name: "determinism", Length: 30_000, Repeats: 2, RepeatLen: 300, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	simPairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 18, Seed: 42},
		InsertMean: 600, InsertSD: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]scaffold.Pair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = scaffold.Pair{R1: p.R1, R2: p.R2}
	}
	return readsim.Interleave(simPairs), pairs
}

// TestPipelineParallelDeterminism is the engine-shuffle determinism contract
// at pipeline scale: assembling and scaffolding the example genome with
// Parallel: true must produce byte-identical contig and scaffold FASTA and
// identical message/superstep statistics to sequential mode, for worker
// counts 1, 4 and 7.
func TestPipelineParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline determinism matrix is slow")
	}
	reads, pairs := exampleGenomeReads(t)
	perWorkerSorted := map[int][]string{}
	for _, workers := range []int{1, 4, 7} {
		cSeq, sSeq, resSeq, sresSeq := runPipeline(t, reads, pairs, workers, false, nil)
		cPar, sPar, resPar, sresPar := runPipeline(t, reads, pairs, workers, true, nil)
		if !bytes.Equal(cSeq, cPar) {
			t.Errorf("workers=%d: contig FASTA differs between Parallel=false and true", workers)
		}
		if !bytes.Equal(sSeq, sPar) {
			t.Errorf("workers=%d: scaffold FASTA differs between Parallel=false and true", workers)
		}
		for _, cmp := range []struct {
			name               string
			seqMsgs, parMsgs   int64
			seqSteps, parSteps int
		}{
			{"kmer-label", resSeq.KmerLabel.Messages, resPar.KmerLabel.Messages,
				resSeq.KmerLabel.Supersteps, resPar.KmerLabel.Supersteps},
			{"contig-label", resSeq.ContigLabel.Messages, resPar.ContigLabel.Messages,
				resSeq.ContigLabel.Supersteps, resPar.ContigLabel.Supersteps},
			{"scaffold", sresSeq.Stats.Messages, sresPar.Stats.Messages,
				sresSeq.Stats.Supersteps, sresPar.Stats.Supersteps},
		} {
			if cmp.seqMsgs != cmp.parMsgs || cmp.seqSteps != cmp.parSteps {
				t.Errorf("workers=%d %s: parallel stats (msgs=%d steps=%d) != sequential (msgs=%d steps=%d)",
					workers, cmp.name, cmp.parMsgs, cmp.parSteps, cmp.seqMsgs, cmp.seqSteps)
			}
		}
		perWorkerSorted[workers] = sortedContigSeqs(resSeq)
	}
	// Across worker counts the contig ordering (and so the FASTA bytes) may
	// legitimately differ — contigs are named by the reducer that created
	// them — but the assembled sequence content must not.
	base := perWorkerSorted[1]
	for _, workers := range []int{4, 7} {
		got := perWorkerSorted[workers]
		if len(got) != len(base) {
			t.Errorf("workers=%d produced %d contigs, workers=1 produced %d", workers, len(got), len(base))
			continue
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("workers=%d: contig sequence set differs from workers=1 (first at %d)", workers, i)
				break
			}
		}
	}
}

// sortedContigSeqs canonicalizes an assembly's contig set: each contig as
// the lexicographically smaller of itself and its reverse complement, the
// whole set sorted.
func sortedContigSeqs(res *Result) []string {
	out := make([]string, 0, len(res.Contigs))
	for _, c := range res.Contigs {
		s := c.Node.Seq.String()
		if rc := c.Node.Seq.ReverseComplement().String(); rc < s {
			s = rc
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestPipelineRepeatRunsIdentical: two identical parallel runs produce the
// same bytes (no hidden dependence on scheduling or map iteration).
func TestPipelineRepeatRunsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline determinism matrix is slow")
	}
	reads, pairs := exampleGenomeReads(t)
	c1, s1, _, _ := runPipeline(t, reads, pairs, 4, true, nil)
	c2, s2, _, _ := runPipeline(t, reads, pairs, 4, true, nil)
	if !bytes.Equal(c1, c2) {
		t.Error("two identical parallel runs produced different contig FASTA")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("two identical parallel runs produced different scaffold FASTA")
	}
}
