// Ops cookbook: a tour of the workflow layer — the paper's operation API
// (§II, §IV) reified as typed jobs that hand their artifacts to the next
// job in memory (the Pregel+ convert extension).
//
//  1. Spell a workflow as a CLI-style spec and let the registry compile it.
//  2. Build the same thing programmatically with the Plan API.
//  3. Watch the planner reject an ill-typed composition before any compute.
//  4. Thread fault tolerance through a composition: checkpoints land under
//     per-op deterministic job keys, and an injected crash recovers.
//
// Run with: go run ./examples/ops-cookbook
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ppaassembler/internal/core"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/workflow"
)

func main() {
	ref, err := genome.Generate(genome.Spec{
		Name: "cookbook", Length: 40_000, Repeats: 3, RepeatLen: 250, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{
		ReadLen: 100, Coverage: 16, SubRate: 0.003, Seed: 62,
	})
	if err != nil {
		log.Fatal(err)
	}
	shards := pregel.ShardSlice(reads, 4)

	// ── 1. A workflow as a spec string ─────────────────────────────────
	// The registry turns op names + key=value parameters into configured
	// ops; the core.Options it is built from supply whatever the spec
	// leaves unset (the ppa-assembler flags reach a -workflow spec this way).
	reg := core.OpRegistry(core.DefaultOptions(4))
	spec := "build,label,merge,bubble,rebuild,link,tiptrim:minlen=40,label,merge,fasta"
	plan, err := workflow.Parse(reg, spec, core.ArtReads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. parsed spec into %d ops: %s\n", len(plan.Ops()), plan)

	st := &core.State{Reads: shards}
	if err := plan.Run(&workflow.Env{Config: pregel.Config{Workers: 4}}, st); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   assembled %d contigs (tiptrim ran with minlen=40)\n\n", len(st.Fasta))

	// ── 2. The same composition through the typed Plan API ─────────────
	// Each op is a struct whose fields are its entire configuration — the
	// registry above builds exactly these from a spec.
	api := workflow.NewPlan[core.State](core.ArtReads).
		Then(core.BuildDBGOp{K: 21, Theta: 1}).
		Then(core.LabelOp{Algo: core.LabelerLR}).
		Then(core.MergeOp{TipLen: 80}).
		Then(core.EmitFastaOp{MinLen: 200})
	if err := api.Err(); err != nil {
		log.Fatal(err)
	}
	st2 := &core.State{Reads: shards}
	if err := api.Run(&workflow.Env{Config: pregel.Config{Workers: 4}}, st2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. one-round plan %q: %d contigs >= 200 bp\n\n", api.String(), len(st2.Fasta))

	// ── 3. Typed validation catches bad compositions ───────────────────
	// Merging needs fresh labels and spends them, so a second merge without
	// relabeling is rejected at build time, before any reads are touched.
	bad := workflow.NewPlan[core.State](core.ArtReads).
		Then(core.BuildDBGOp{K: 21, Theta: 1}).
		Then(core.LabelOp{Algo: core.LabelerLR}).
		Then(core.MergeOp{TipLen: 80}).
		Then(core.MergeOp{TipLen: 80})
	fmt.Printf("3. planner rejects a merge of spent labels:\n   %v\n\n", bad.Err())

	// ── 4. Fault tolerance across a composition ────────────────────────
	// One checkpoint store and one crash schedule thread through every op;
	// job keys carry the op's plan position, so a re-executed plan resumes
	// deterministically. Round 12 of the composition loses worker 2 and
	// the run recovers from the latest checkpoint.
	ckptDir := filepath.Join(os.TempDir(), "ppa-cookbook-ckpt")
	defer os.RemoveAll(ckptDir)
	store, err := pregel.NewDirCheckpointer(ckptDir)
	if err != nil {
		log.Fatal(err)
	}
	ft := workflow.NewPlan[core.State](core.ArtReads).
		Then(core.BuildDBGOp{K: 21, Theta: 1}).
		Then(core.LabelOp{Algo: core.LabelerLR}).
		Then(core.MergeOp{TipLen: 80}).
		Then(core.EmitFastaOp{MinLen: 200})
	faults := pregel.NewFaultPlan(pregel.Fault{Round: 12, Worker: 2})
	st4 := &core.State{Reads: shards}
	err = ft.Run(&workflow.Env{Config: pregel.Config{
		Workers: 4, CheckpointEvery: 4, Checkpointer: store, Faults: faults,
	}}, st4)
	if err != nil {
		log.Fatal(err)
	}
	var ftBuf bytes.Buffer
	fastx.WriteFasta(&ftBuf, st4.Fasta, 70)
	entries, _ := os.ReadDir(ckptDir)
	keys := map[string]bool{}
	for _, e := range entries {
		if i := strings.Index(e.Name(), "@"); i > 0 {
			keys[e.Name()[:i]] = true
		}
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var memBuf bytes.Buffer
	fastx.WriteFasta(&memBuf, st2.Fasta, 70)
	fmt.Printf("4. crash at round 12 fired=%v, recovered output identical: %v\n",
		faults.FiredCount() == 1, bytes.Equal(ftBuf.Bytes(), memBuf.Bytes()))
	fmt.Printf("   per-op checkpoint key families: %s\n", strings.Join(names, ", "))
}
