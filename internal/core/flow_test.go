package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/shardio"
	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/workflow"
)

// graphRecords canonicalizes a segment graph as its sorted node records,
// which is worker-layout independent.
func graphRecords(g *Graph) []string {
	var recs []string
	g.ForEach(func(id pregel.VertexID, v *VData) {
		recs = append(recs, nodeRecord(&v.Node))
	})
	sort.Strings(recs)
	return recs
}

// TestDumpLoadSegmentsAcrossWorkerCounts: a segment store written by W
// workers and re-replicated onto a different worker count must reconstruct
// an equivalent graph — same node records — and assemble the same contig
// sequences.
func TestDumpLoadSegmentsAcrossWorkerCounts(t *testing.T) {
	reads, _ := exampleGenomeReads(t)
	const k = 21
	g := buildSegGraph(t, reads, k, 3)
	want := graphRecords(g)
	if _, err := LabelContigs(g, LabelerLR); err != nil {
		t.Fatal(err)
	}
	m, err := MergeContigs(g, k, 80)
	if err != nil {
		t.Fatal(err)
	}
	wantSeqs := contigSeqs(pregel.Flatten(m.Contigs))

	// Dump from the pre-labeling state (labels are scratch, not staged).
	g = buildSegGraph(t, reads, k, 3)
	store, err := shardio.Open(filepath.Join(t.TempDir(), "seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := DumpSegments(g, store); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 4, 7} {
		g2, err := LoadSegments(store, pregel.Config{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := graphRecords(g2)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: reloaded %d records, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: record %d differs:\n got %s\nwant %s", workers, i, got[i], want[i])
			}
		}
		// The reloaded graph must assemble the same contig sequences
		// (contig IDs legitimately differ with the worker layout).
		if _, err := LabelContigs(g2, LabelerLR); err != nil {
			t.Fatal(err)
		}
		m2, err := MergeContigs(g2, k, 80)
		if err != nil {
			t.Fatal(err)
		}
		gotSeqs := contigSeqs(pregel.Flatten(m2.Contigs))
		if len(gotSeqs) != len(wantSeqs) {
			t.Fatalf("workers=%d: assembled %d contigs, want %d", workers, len(gotSeqs), len(wantSeqs))
		}
		for i := range wantSeqs {
			if gotSeqs[i] != wantSeqs[i] {
				t.Errorf("workers=%d: contig %d sequence differs", workers, i)
			}
		}
	}
}

// contigSeqs returns the canonicalized (sorted) contig sequence strings.
func contigSeqs(contigs []ContigRec) []string {
	seqs := make([]string, len(contigs))
	for i, c := range contigs {
		seqs[i] = c.Node.Seq.String()
	}
	sort.Strings(seqs)
	return seqs
}

// TestDumpLoadContigsAcrossWorkerCounts: contig records survive a store
// round trip bit-for-bit, shard structure included.
func TestDumpLoadContigsAcrossWorkerCounts(t *testing.T) {
	reads, _ := exampleGenomeReads(t)
	const k = 21
	g := buildSegGraph(t, reads, k, 4)
	if _, err := LabelContigs(g, LabelerLR); err != nil {
		t.Fatal(err)
	}
	m, err := MergeContigs(g, k, 80)
	if err != nil {
		t.Fatal(err)
	}
	store, err := shardio.Open(filepath.Join(t.TempDir(), "ctg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := DumpContigs(m.Contigs, store); err != nil {
		t.Fatal(err)
	}
	got, err := LoadContigs(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.Contigs) {
		t.Fatalf("reloaded %d shards, want %d", len(got), len(m.Contigs))
	}
	for w := range m.Contigs {
		if len(got[w]) != len(m.Contigs[w]) {
			t.Fatalf("shard %d: %d records, want %d", w, len(got[w]), len(m.Contigs[w]))
		}
		for i, c := range m.Contigs[w] {
			g := got[w][i]
			if g.ID != c.ID || !g.Node.Seq.Equal(c.Node.Seq) || g.Node.Cov != c.Node.Cov {
				t.Errorf("shard %d record %d differs after round trip", w, i)
			}
		}
	}
}

// metricsFingerprint summarizes every deterministic counter of a workflow
// state for exact comparison.
func metricsFingerprint(st *State) string {
	m := &st.Metrics
	return fmt.Sprintf("k1=%d/%d kmerV=%d midV=%d drops=%v groups=%v bubbles=%d tips=%d branches=%d",
		m.K1Kept, m.K1Distinct, m.KmerVertices, m.MidVertices,
		m.MergeDroppedTips, m.MergeGroups, m.BubblesPruned, m.TipVerticesRemoved, m.BranchesCut)
}

// stockOps appends the two-round pipeline's ops to p, with staging seams
// inserted after build and after rebuild when staged is set (the two seams
// where only durable segment data is live).
func stockOps(p *workflow.Plan[State], staged bool) *workflow.Plan[State] {
	p.Then(BuildDBGOp{K: 21, Theta: 1})
	if staged {
		p.Then(StageOp{})
	}
	p.Then(LabelOp{Algo: LabelerLR}).
		Then(MergeOp{TipLen: 80}).
		Then(BubblePopOp{EditDist: 5}).
		Then(RebuildOp{})
	if staged {
		p.Then(StageOp{})
	}
	p.Then(LinkContigsOp{}).
		Then(TipTrimOp{MinLen: 80}).
		Then(LabelOp{Algo: LabelerLR}).
		Then(MergeOp{TipLen: 80}).
		Then(EmitFastaOp{})
	return p
}

// TestStagedPlanMatchesInMemoryTwin is the staging contract at the plan
// level: a plan with shardio seams (through anonymous temp stores) must
// produce byte-identical FASTA and identical metrics to its all-in-memory
// twin.
func TestStagedPlanMatchesInMemoryTwin(t *testing.T) {
	reads, _ := exampleGenomeReads(t)
	render := func(staged bool) ([]byte, string) {
		p := stockOps(workflow.NewPlan[State](ArtReads), staged)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
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
	memFasta, memMetrics := render(false)
	stagedFasta, stagedMetrics := render(true)
	if len(memFasta) == 0 {
		t.Fatal("in-memory plan produced no FASTA")
	}
	if !bytes.Equal(memFasta, stagedFasta) {
		t.Error("staged plan FASTA differs from in-memory twin")
	}
	if memMetrics != stagedMetrics {
		t.Errorf("staged plan metrics differ:\n mem    %s\n staged %s", memMetrics, stagedMetrics)
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
	if _, err := workflow.Parse(reg, "build,label:algo=zz,merge,fasta", ArtReads); err == nil {
		t.Error("bad label algo accepted")
	}
	if _, err := workflow.Parse(reg, "build,label,merge,split:ratio=1,fasta", ArtReads); err == nil {
		t.Error("split ratio 1 accepted")
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
