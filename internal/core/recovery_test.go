package core

import (
	"bytes"
	"fmt"
	"testing"

	"ppaassembler/internal/fastx"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
)

// recoveryGenomeReads is a smaller cousin of exampleGenomeReads sized for
// the pipeline crash matrix, which assembles the genome dozens of times.
func recoveryGenomeReads(t *testing.T) ([]string, []scaffold.Pair) {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{
		Name: "recovery", Length: 12_000, Repeats: 2, RepeatLen: 250, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	simPairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 14, Seed: 72},
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

// runPipeline assembles and scaffolds with the given fault-tolerance knobs
// and renders both FASTA artifacts exactly as cmd/ppa-assembler does.
func runPipeline(t *testing.T, reads []string, pairs []scaffold.Pair, workers int, parallel bool, mutate func(*Options)) (contigFasta, scaffoldFasta []byte, res *Result, sres *scaffold.Result) {
	t.Helper()
	opt := DefaultOptions(workers)
	opt.K = 21
	opt.Parallel = parallel
	if mutate != nil {
		mutate(&opt)
	}
	res, err := Assemble(pregel.ShardSlice(reads, workers), opt)
	if err != nil {
		t.Fatal(err)
	}
	var recs []fastx.Record
	for i, c := range res.Contigs {
		recs = append(recs, fastx.Record{
			Name: fmt.Sprintf("contig_%d length=%d cov=%d", i+1, c.Len(), c.Node.Cov),
			Seq:  c.Node.Seq.String(),
		})
	}
	var cb bytes.Buffer
	if err := fastx.WriteFasta(&cb, recs, 70); err != nil {
		t.Fatal(err)
	}
	sres, scontigs, err := ScaffoldContigs(res, opt, pairs, scaffold.Options{
		InsertMean: 600, InsertSD: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := fastx.WriteFasta(&sb, scaffold.Records(scontigs, sres.Scaffolds), 70); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), sb.Bytes(), res, sres
}

// pipelineCounters fingerprints every deterministic counter the pipeline
// reports — including the MapReduce-derived ones (θ-filter totals, merge
// drops, pair placement), which a recovery that double-ran a map or reduce
// task would corrupt even when the FASTA happens to survive.
func pipelineCounters(res *Result, sres *scaffold.Result) string {
	return fmt.Sprintf(
		"kmerV=%d midV=%d final=%d k1=%d/%d bubbles=%d tips=%d tipdrop=%v branches=%d "+
			"klabel=%d/%d/%d clabel=%d/%d/%d "+
			"pairs=%d/%d/%d/%d bundles=%d kept=%d excl=%d cyc=%d scaf=%d/%d insert=%.3f/%.3f",
		res.KmerVertices, res.MidVertices, res.FinalContigs, res.K1Kept, res.K1Distinct,
		res.BubblesPruned, res.TipVerticesRemoved, res.TipsDroppedAtMerge, res.BranchesCut,
		res.KmerLabel.Supersteps, res.KmerLabel.Messages, int64(res.KmerLabel.CycleVertices),
		res.ContigLabel.Supersteps, res.ContigLabel.Messages, int64(res.ContigLabel.CycleVertices),
		sres.PairsTotal, sres.PairsPlaced, sres.PairsSameContig, sres.PairsLinking,
		sres.LinkBundles, sres.LinksKept, sres.Excluded, sres.CycleContigs,
		sres.Stats.Supersteps, sres.Stats.Messages, sres.InsertMean, sres.InsertSD)
}

// sampleRounds picks up to max failure rounds covering [0, rounds): always
// the first and last round, the rest evenly spaced, so every pipeline stage
// (DBG MapReduce, labeling, merging, bubble/tip jobs, scaffolding) gets
// crashed somewhere in the matrix.
func sampleRounds(rounds, max int) []int {
	if rounds <= max {
		out := make([]int, rounds)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := []int{0}
	for i := 1; i < max-1; i++ {
		out = append(out, i*(rounds-1)/(max-1))
	}
	return append(out, rounds-1)
}

// TestPipelineCrashMatrix is the headline fault-tolerance contract at
// pipeline scale: kill a worker at failure rounds sampled across the whole
// assemble→scaffold pipeline, for worker counts {1,4,7} × Parallel
// {off,on}, and every recovered run must write byte-identical contig and
// scaffold FASTA with identical job statistics to the unfailed run.
func TestPipelineCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline crash matrix is slow")
	}
	reads, pairs := recoveryGenomeReads(t)
	for _, workers := range []int{1, 4, 7} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("w%d-par%v", workers, parallel), func(t *testing.T) {
				probe := pregel.NewFaultPlan()
				cBase, sBase, resBase, sresBase := runPipeline(t, reads, pairs, workers, parallel,
					func(o *Options) { o.Faults = probe })
				rounds := probe.Rounds()
				if rounds < 10 {
					t.Fatalf("probe saw only %d BSP rounds; pipeline shrank?", rounds)
				}

				for _, failAt := range sampleRounds(rounds, 8) {
					plan := pregel.NewFaultPlan(pregel.Fault{Round: failAt, Worker: failAt})
					cGot, sGot, resGot, sresGot := runPipeline(t, reads, pairs, workers, parallel,
						func(o *Options) {
							o.CheckpointEvery = 4
							o.Faults = plan
						})
					if plan.FiredCount() != 1 {
						t.Errorf("fail@%d/%d: fault did not fire", failAt, rounds)
					}
					if !bytes.Equal(cGot, cBase) {
						t.Errorf("fail@%d/%d: recovered contig FASTA differs from unfailed run", failAt, rounds)
					}
					if !bytes.Equal(sGot, sBase) {
						t.Errorf("fail@%d/%d: recovered scaffold FASTA differs from unfailed run", failAt, rounds)
					}
					if base, got := pipelineCounters(resBase, sresBase), pipelineCounters(resGot, sresGot); got != base {
						t.Errorf("fail@%d/%d: recovered pipeline counters differ:\nunfailed %s\nrecovered %s",
							failAt, rounds, base, got)
					}
					// Simulated time is NOT compared: it mixes measured
					// compute ns with the deterministic recovery charges,
					// so run-to-run noise can mask them here. The clock
					// ordering contract is pinned at engine level by
					// TestClockNeverRewindsThroughRecovery and
					// TestCheckpointChargesClock, where fixed latencies
					// dominate measurement noise.
				}
			})
		}
	}
}

// TestPipelineCrashDeltaCheckpoints is the delta-checkpoint leg of the
// crash matrix: incremental (dirty-vertex-only) checkpoints between full
// snapshots, crashed at sampled rounds — recovery replays the full+delta
// chain through every pipeline stage and must write byte-identical
// artifacts. VData/Msg implement the binary codec, so the segment-graph
// jobs genuinely take the delta path here.
func TestPipelineCrashDeltaCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline crash matrix is slow")
	}
	reads, pairs := recoveryGenomeReads(t)
	probe := pregel.NewFaultPlan()
	cBase, sBase, resBase, sresBase := runPipeline(t, reads, pairs, 4, true,
		func(o *Options) { o.Faults = probe })
	baseCounters := pipelineCounters(resBase, sresBase)

	for _, failAt := range sampleRounds(probe.Rounds(), 6) {
		plan := pregel.NewFaultPlan(pregel.Fault{Round: failAt, Worker: failAt})
		cGot, sGot, resGot, sresGot := runPipeline(t, reads, pairs, 4, true,
			func(o *Options) {
				o.CheckpointEvery = 2
				o.DeltaCheckpoints = true
				o.Faults = plan
			})
		if plan.FiredCount() != 1 {
			t.Errorf("fail@%d: fault did not fire", failAt)
		}
		if !bytes.Equal(cGot, cBase) || !bytes.Equal(sGot, sBase) {
			t.Errorf("fail@%d: recovery from delta chain wrote different FASTA", failAt)
		}
		if got := pipelineCounters(resGot, sresGot); got != baseCounters {
			t.Errorf("fail@%d: recovered pipeline counters differ:\nunfailed %s\nrecovered %s",
				failAt, baseCounters, got)
		}
	}
}

// TestPipelineCrashSweepAllRounds is the exhaustive companion to the
// sampled matrix: at workers=1 it crashes the pipeline at every single BSP
// round — engine supersteps and MapReduce phases alike — and requires
// byte-identical FASTA plus identical counters each time. This is the test
// that catches recovery paths whose damage hides between sampled rounds
// (e.g. a MapReduce task redo double-counting a caller-owned accumulator).
func TestPipelineCrashSweepAllRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash sweep is slow")
	}
	reads, pairs := recoveryGenomeReads(t)
	probe := pregel.NewFaultPlan()
	cBase, sBase, resBase, sresBase := runPipeline(t, reads, pairs, 1, false,
		func(o *Options) { o.Faults = probe })
	rounds := probe.Rounds()
	baseCounters := pipelineCounters(resBase, sresBase)

	for failAt := 0; failAt < rounds; failAt++ {
		plan := pregel.NewFaultPlan(pregel.Fault{Round: failAt, Worker: 0})
		cGot, sGot, resGot, sresGot := runPipeline(t, reads, pairs, 1, false,
			func(o *Options) {
				o.CheckpointEvery = 4
				o.Faults = plan
			})
		if plan.FiredCount() != 1 {
			t.Errorf("fail@%d/%d: fault did not fire", failAt, rounds)
		}
		if !bytes.Equal(cGot, cBase) || !bytes.Equal(sGot, sBase) {
			t.Errorf("fail@%d/%d: recovered FASTA differs from unfailed run", failAt, rounds)
		}
		if got := pipelineCounters(resGot, sresGot); got != baseCounters {
			t.Errorf("fail@%d/%d: recovered pipeline counters differ:\nunfailed %s\nrecovered %s",
				failAt, rounds, baseCounters, got)
		}
	}
}

// TestPipelineResumeFromDisk kills-and-resumes at process granularity: a
// first pipeline run leaves its checkpoints in a DirCheckpointer; a second
// run over the same inputs with Resume must fast-forward from them and
// write byte-identical artifacts. (The first run completing is the worst
// case for resume correctness: every job restarts from its last cadence
// checkpoint and replays its tail.)
func TestPipelineResumeFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline resume test is slow")
	}
	reads, pairs := recoveryGenomeReads(t)
	dir := t.TempDir()

	store1, err := pregel.NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, s1, _, _ := runPipeline(t, reads, pairs, 4, false, func(o *Options) {
		o.CheckpointEvery = 3
		o.Checkpointer = store1
	})

	store2, err := pregel.NewDirCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, s2, _, _ := runPipeline(t, reads, pairs, 4, false, func(o *Options) {
		o.CheckpointEvery = 3
		o.Checkpointer = store2
		o.Resume = true
	})
	if !bytes.Equal(c1, c2) {
		t.Error("resumed pipeline produced different contig FASTA")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("resumed pipeline produced different scaffold FASTA")
	}
}
