// Custom workflow: compose the toolkit's operations into a strategy the
// stock pipeline does not offer — the paper's central design point is that
// the five operations are composable building blocks ("can be assembled to
// implement various sequencing strategies"). This example builds the DBG
// (op ①), labels with the simplified S-V algorithm instead of list ranking
// (op ②), merges (op ③), then deliberately skips bubble filtering and runs
// only tip removal (op ⑤) before a final labeling/merging round.
//
// Since PR 4 the composition is a first-class workflow.Plan over the op
// catalog in internal/core: the planner type-checks the artifact flow
// before any compute, and one shared environment (clock, checkpoint store,
// fault plan) threads through every op. The same plan can be spelled on
// the command line as
//
//	ppa-assembler -workflow "build,svlabel,merge,rebuild,link,tiptrim,svlabel,merge,fasta"
//
// Run with: go run ./examples/customworkflow
package main

import (
	"fmt"
	"log"

	"ppaassembler/internal/core"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/workflow"
)

const (
	k      = 21
	tipLen = 80
)

func main() {
	ref, err := genome.Generate(genome.Spec{
		Name: "custom", Length: 60_000, Repeats: 4, RepeatLen: 200, Seed: 41,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{
		ReadLen: 100, Coverage: 15, SubRate: 0.004, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The custom strategy as a typed plan: note there is no bubble op, and
	// both labeling rounds use the S-V variant. Validation runs as the
	// plan is built — try inserting MergeOp before LabelOp and the plan
	// reports the missing "labels" artifact instead of computing garbage.
	plan := workflow.NewPlan[core.State](core.ArtReads).
		Then(core.BuildDBGOp{K: k, Theta: 1}).
		Then(core.LabelOp{Algo: core.LabelerSV}).
		Then(core.MergeOp{TipLen: tipLen}).
		Then(core.RebuildOp{}). // straight to the mixed graph: bubble filtering skipped
		Then(core.LinkContigsOp{}).
		Then(core.TipTrimOp{MinLen: tipLen}).
		Then(core.LabelOp{Algo: core.LabelerSV}).
		Then(core.MergeOp{TipLen: tipLen})
	if err := plan.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %s\n", plan)

	env := &workflow.Env{Config: pregel.Config{Workers: 4}}
	st := &core.State{Reads: pregel.ShardSlice(reads, env.Workers)}
	if err := plan.Run(env, st); err != nil {
		log.Fatal(err)
	}

	m := &st.Metrics
	fmt.Printf("op1: %d k-mer vertices (%d/%d (k+1)-mers kept)\n",
		m.KmerVertices, m.K1Kept, m.K1Distinct)
	fmt.Printf("op2 (S-V): %d supersteps, %d messages\n",
		m.Labels[0].Supersteps, m.Labels[0].Messages)
	fmt.Printf("op3: %d contig groups, %d dropped as merge-time tips\n",
		m.MergeGroups[0], m.MergeDroppedTips[0])
	fmt.Printf("op5: %d tip vertices removed (bubble filtering skipped)\n",
		m.TipVerticesRemoved)

	contigs := pregel.Flatten(st.Contigs)
	total := 0
	for _, c := range contigs {
		total += c.Len()
	}
	fmt.Printf("final: %d contigs totaling %d bp (reference %d bp)\n",
		len(contigs), total, ref.Len())
	fmt.Printf("end-to-end simulated cluster time: %.2fs\n", env.Clock.Seconds())
}
