package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/workflow"
)

// metricsFingerprint summarizes every deterministic counter of a workflow
// state for exact comparison.
func metricsFingerprint(st *State) string {
	m := &st.Metrics
	return fmt.Sprintf("k1=%d/%d kmerV=%d midV=%d drops=%v groups=%v bubbles=%d tips=%d branches=%d",
		m.K1Kept, m.K1Distinct, m.KmerVertices, m.MidVertices,
		m.MergeDroppedTips, m.MergeGroups, m.BubblesPruned, m.TipVerticesRemoved, m.BranchesCut)
}

// TestBuiltPlanMatchesParsedSpec: the two-round pipeline composed op by op
// through the Plan API and the same pipeline spelled as a spec over the
// registry are the same ops, and they produce byte-identical FASTA and
// identical metrics.
func TestBuiltPlanMatchesParsedSpec(t *testing.T) {
	reads, _ := exampleGenomeReads(t)
	built := workflow.NewPlan[State](ArtReads).
		Then(BuildDBGOp{K: 21, Theta: 1}).
		Then(LabelOp{Algo: LabelerLR}).
		Then(MergeOp{TipLen: 80}).
		Then(BubblePopOp{EditDist: 5}).
		Then(RebuildOp{}).
		Then(LinkContigsOp{}).
		Then(TipTrimOp{MinLen: 80}).
		Then(LabelOp{Algo: LabelerLR}).
		Then(MergeOp{TipLen: 80}).
		Then(EmitFastaOp{})
	if err := built.Err(); err != nil {
		t.Fatal(err)
	}
	parsed, err := workflow.Parse(OpRegistry(DefaultOptions(4)),
		"build,label,merge,bubble,rebuild,link,tiptrim,label,merge,fasta", ArtReads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built.Ops(), parsed.Ops()) {
		t.Fatalf("built ops %v, parsed ops %v", built.Ops(), parsed.Ops())
	}
	render := func(p *workflow.Plan[State]) ([]byte, string) {
		st := &State{Reads: pregel.ShardSlice(reads, 4)}
		if err := p.Run(&workflow.Env{Config: pregel.Config{Workers: 4}}, st); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fastx.WriteFasta(&buf, st.Fasta, 70); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), metricsFingerprint(st)
	}
	builtFasta, builtMetrics := render(built)
	parsedFasta, parsedMetrics := render(parsed)
	if len(builtFasta) == 0 {
		t.Fatal("built plan produced no FASTA")
	}
	if !bytes.Equal(builtFasta, parsedFasta) {
		t.Error("parsed plan FASTA differs from the built plan's")
	}
	if builtMetrics != parsedMetrics {
		t.Errorf("parsed plan metrics differ:\n built  %s\n parsed %s", builtMetrics, parsedMetrics)
	}
}

// TestAssemblePlanShape: the canned plans validate and end with the
// artifacts Assemble folds into its Result.
func TestAssemblePlanShape(t *testing.T) {
	opt := DefaultOptions(2)
	p, err := AssemblePlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Provides(ArtContigs) || !p.Provides(ArtGraph) {
		t.Error("two-round plan does not end with contigs and graph")
	}
	if got := p.String(); got != "build,label,merge,bubble,rebuild,link,tiptrim,label,merge" {
		t.Errorf("two-round plan = %q", got)
	}
	opt.Rounds = 1
	if p, err = AssemblePlan(opt); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "build,label,merge" {
		t.Errorf("one-round plan = %q", got)
	}
	opt.Rounds = 2
	opt.BranchSplitRatio = 3
	if p, err = AssemblePlan(opt); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "build,label,merge,bubble,rebuild,link,split,tiptrim,label,merge" {
		t.Errorf("split-enabled plan = %q", got)
	}
	// The zero value means two rounds here (Assemble refuses it).
	opt.Rounds = 0
	opt.BranchSplitRatio = 0
	if p, err = AssemblePlan(opt); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "build,label,merge,bubble,rebuild,link,tiptrim,label,merge" {
		t.Errorf("zero-rounds plan = %q (should default to two rounds)", got)
	}
	opt.Rounds = 5
	if _, err = AssemblePlan(opt); err == nil {
		t.Error("Rounds=5 accepted")
	}
}

// TestOpRegistryAliases: the labeling aliases and parameter plumbing of
// the spec registry.
func TestOpRegistryAliases(t *testing.T) {
	reg := OpRegistry(DefaultOptions(1))
	for spec, want := range map[string]Labeler{
		"listrank":      LabelerLR,
		"svlabel":       LabelerSV,
		"label":         LabelerLR,
		"label:algo=sv": LabelerSV,
		"label:algo=SV": LabelerSV,
		"label:algo=LR": LabelerLR,
	} {
		p, err := workflow.Parse(reg, "build,"+spec+",merge,fasta", ArtReads)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		op, ok := p.Ops()[1].(LabelOp)
		if !ok {
			t.Fatalf("spec %q: op 1 is %T", spec, p.Ops()[1])
		}
		if op.Algo != want {
			t.Errorf("spec %q: algo %v, want %v", spec, op.Algo, want)
		}
	}
}

// TestOpRegistryRejects: a spec whose op parameters are out of range fails
// in Parse, naming the op, before any input is read.
func TestOpRegistryRejects(t *testing.T) {
	even := DefaultOptions(1)
	even.K = 20 // as -k 20 sets it
	for _, c := range []struct {
		opt        Options
		spec, want string
	}{
		{DefaultOptions(1), "build,label:algo=zz,merge,fasta", `op "label"`},
		{DefaultOptions(1), "build,label,merge,split:ratio=1,fasta", `op "split": parameter ratio=1`},
		{DefaultOptions(1), "build:k=33,label,merge,fasta", `op "build": dna: k=33 out of range`},
		{DefaultOptions(1), "build:k=20,label,merge,fasta", `op "build": dna: k=20 must be odd`},
		{even, "build,label,merge,fasta", `op "build": dna: k=20 must be odd`},
	} {
		_, err := workflow.Parse(OpRegistry(c.opt), c.spec, ArtReads)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q (k=%d): error %v, want one containing %q", c.spec, c.opt.K, err, c.want)
		}
	}
}

// TestMsgChargeIndependentOfEnv: the wire size a segment-graph message is
// charged at is bound where the graph is built, so the same plan charges
// the same bytes under the environment Options.Env renders and under a bare
// one that names no message size.
func TestMsgChargeIndependentOfEnv(t *testing.T) {
	reads, _ := exampleGenomeReads(t)
	opt := DefaultOptions(4)
	charged := func(env *workflow.Env) int64 {
		reg := telemetry.NewRegistry()
		env.Metrics = reg
		plan, err := AssemblePlan(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Run(env, &State{Reads: pregel.ShardSlice(reads, 4)}); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("pregel_bytes_total").Value()
	}
	bare := &workflow.Env{}
	bare.Workers, bare.Parallel = opt.Workers, opt.Parallel
	viaOptions, viaBare := charged(opt.Env(nil)), charged(bare)
	if viaOptions == 0 || viaOptions != viaBare {
		t.Errorf("pregel_bytes_total: %d under Options.Env, %d under a bare Env", viaOptions, viaBare)
	}
}
