package core

import (
	"testing"

	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/workflow"
)

// TestScaffoldContigsStage runs the full pipeline ①–⑥ as AssemblePlan's
// plan, then stage ⑦ as a ScaffoldOp plan on the same environment, and
// checks the stage wiring: contig IDs pass through, and scaffolding charges
// the assembly's simulated clock.
func TestScaffoldContigsStage(t *testing.T) {
	ref, err := genome.Generate(genome.Spec{
		Name: "stage7", Length: 30_000, Repeats: 2, RepeatLen: 300, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	simPairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 25, Seed: 92},
		InsertMean: 700, InsertSD: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(3)
	asm, err := AssemblePlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	env := opt.Env(nil)
	st := &State{Reads: pregel.ShardSlice(readsim.Interleave(simPairs), 3)}
	if err := asm.Run(env, st); err != nil {
		t.Fatal(err)
	}
	simBefore := env.Clock.Seconds()

	for _, p := range simPairs {
		st.Pairs = append(st.Pairs, scaffold.Pair{R1: p.R1, R2: p.R2})
	}
	stage := workflow.NewPlan[State](ArtContigs, ArtPairs).
		Then(ScaffoldOp{Lib: scaffold.Options{InsertMean: 700, InsertSD: 60}})
	if err := stage.Run(env, st); err != nil {
		t.Fatal(err)
	}
	sres, contigs, flat := st.Scaffold, st.ScaffoldContigs, pregel.Flatten(st.Contigs)
	if len(contigs) != len(flat) {
		t.Fatalf("%d scaffold contigs from %d assembly contigs", len(contigs), len(flat))
	}
	for i, c := range contigs {
		if c.ID != flat[i].ID {
			t.Fatalf("contig %d: ID %x does not match assembly ID %x", i, c.ID, flat[i].ID)
		}
	}
	if sres.SimSeconds <= 0 {
		t.Error("scaffolding charged no simulated time")
	}
	if env.Clock.Seconds() <= simBefore {
		t.Errorf("pipeline simulated time did not grow: %.4f -> %.4f", simBefore, env.Clock.Seconds())
	}
	if sres.Stats.Supersteps == 0 || sres.Stats.Messages == 0 {
		t.Errorf("no scaffolding supersteps/messages recorded: %+v", sres.Stats)
	}
	total := 0
	for _, s := range sres.Scaffolds {
		total += s.Len()
	}
	if total != len(contigs) {
		t.Errorf("scaffolds cover %d contigs, input had %d", total, len(contigs))
	}
}
