package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppaassembler/internal/core"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/workflow"
)

// cannedSpec is the -workflow spelling of the stock two-round pipeline
// (the op parameters inherit the global flags, exactly as run() sets them).
const cannedSpec = "build,label,merge,bubble,rebuild,link,tiptrim,label,merge,fasta"

func workflowTestReads(t *testing.T, dir string) string {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{
		Name: "wf", Length: 14_000, Repeats: 2, RepeatLen: 250, Seed: 203,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{
		ReadLen: 100, Coverage: 14, SubRate: 0.002, Seed: 204,
	})
	if err != nil {
		t.Fatal(err)
	}
	return writeReadsFastq(t, dir, reads)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// libraryRun is the library path for o's flags: the plan core.AssemblePlan
// builds from the equivalent core.Options, then the fasta op and, with
// -scaffold, core.ScaffoldOp, run as one plan over the same reads. It
// returns the contig and scaffold FASTA the CLI would write.
func libraryRun(t *testing.T, o cliOpts) (contigs, scaffolds []byte) {
	t.Helper()
	reads, err := loadReadList(o.in)
	if err != nil {
		t.Fatal(err)
	}
	if o.Labeler, err = core.ParseLabeler(o.labeler); err != nil {
		t.Fatal(err)
	}
	asm, err := core.AssemblePlan(o.Options)
	if err != nil {
		t.Fatal(err)
	}
	plan := workflow.NewPlan[core.State](core.ArtReads, core.ArtPairs)
	for _, op := range asm.Ops() {
		plan.Then(op)
	}
	plan.Then(core.EmitFastaOp{MinLen: o.MinLen})
	st := &core.State{Reads: pregel.ShardSlice(reads, o.Workers)}
	if o.scaffoldOut != "" {
		plan.Then(core.ScaffoldOp{Lib: o.Scaffold})
		if st.Pairs, err = scaffold.PairUp(reads); err != nil {
			t.Fatal(err)
		}
	}
	if err := plan.Run(o.Env(nil), st); err != nil {
		t.Fatal(err)
	}
	var cb, sb bytes.Buffer
	if err := fastx.WriteFasta(&cb, st.Fasta, 70); err != nil {
		t.Fatal(err)
	}
	if st.Scaffold != nil {
		if err := fastx.WriteFasta(&sb, scaffold.Records(st.ScaffoldContigs, st.Scaffold.Scaffolds), 70); err != nil {
			t.Fatal(err)
		}
	}
	return cb.Bytes(), sb.Bytes()
}

// TestWorkflowSpecMatchesCannedPipeline: the command without -workflow
// must write byte-identical contig FASTA to the library's canned plan
// (core.AssemblePlan), for -rounds 1 and 2.
func TestWorkflowSpecMatchesCannedPipeline(t *testing.T) {
	dir := t.TempDir()
	in := workflowTestReads(t, dir)
	for _, rounds := range []int{1, 2} {
		o := defaultOpts(in, filepath.Join(dir, "cli.fasta"))
		o.Rounds = rounds
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		cli := readFile(t, o.out)
		lib, _ := libraryRun(t, o)
		if len(cli) == 0 {
			t.Fatalf("rounds=%d: the CLI wrote no contigs", rounds)
		}
		if !bytes.Equal(cli, lib) {
			t.Errorf("rounds=%d: CLI contig FASTA differs from core.AssemblePlan's", rounds)
		}
	}
}

// TestWorkflowScaffoldMatchesCannedPipeline runs the paired golden dataset
// through the command with -scaffold and demands byte-identical contig and
// scaffold FASTA against core.AssemblePlan followed by core.ScaffoldOp, for
// -rounds 1 and 2.
func TestWorkflowScaffoldMatchesCannedPipeline(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	for _, rounds := range []int{1, 2} {
		o := defaultOpts(readsPath, filepath.Join(dir, "c.fasta"))
		o.K = 21
		o.Workers = 4
		o.Rounds = rounds
		o.scaffoldOut = filepath.Join(dir, "c_scaf.fasta")
		o.Scaffold.InsertMean, o.Scaffold.InsertSD = 650, 55
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		contigs, scaffolds := libraryRun(t, o)
		if !bytes.Equal(readFile(t, o.out), contigs) {
			t.Errorf("rounds=%d: CLI contig FASTA differs from the library plan's", rounds)
		}
		if !bytes.Equal(readFile(t, o.scaffoldOut), scaffolds) {
			t.Errorf("rounds=%d: CLI scaffold FASTA differs from the library plan's", rounds)
		}
	}
}

// TestGFAExplicitSpecMatchesDefault: -gfa under an explicit spec that links
// contigs writes the same graph, and the same contigs, as the default run.
func TestGFAExplicitSpecMatchesDefault(t *testing.T) {
	dir := t.TempDir()
	in := workflowTestReads(t, dir)
	var outs [2][2][]byte
	for i, spec := range []string{"", cannedSpec} {
		o := defaultOpts(in, filepath.Join(dir, fmt.Sprintf("c%d.fasta", i)))
		o.gfa = filepath.Join(dir, fmt.Sprintf("g%d.gfa", i))
		o.workflow = spec
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		outs[i] = [2][]byte{readFile(t, o.out), readFile(t, o.gfa)}
	}
	if !bytes.HasPrefix(outs[0][1], []byte("H\tVN:Z:1.0")) || !bytes.Contains(outs[0][1], []byte("\nS\t")) {
		t.Fatalf("default run wrote no GFA segments:\n%.200s", outs[0][1])
	}
	if !bytes.Equal(outs[0][0], outs[1][0]) || !bytes.Equal(outs[0][1], outs[1][1]) {
		t.Error("-gfa under the explicit spec differs from the default run")
	}
}

// TestWorkflowKillAndResume is the process-level recovery contract through
// a user-composed plan: a first -workflow run leaves its checkpoints in a
// directory; a second process-equivalent run with -resume fast-forwards
// from them and must write byte-identical FASTA. A fault-injected run over
// the same plan must also recover to identical output.
func TestWorkflowKillAndResume(t *testing.T) {
	dir := t.TempDir()
	in := workflowTestReads(t, dir)

	// Baseline, no fault tolerance.
	baseOut := filepath.Join(dir, "base.fasta")
	o := defaultOpts(in, baseOut)
	o.workflow = cannedSpec
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	base := readFile(t, baseOut)

	// First checkpointed run ("the killed process", completing its work —
	// the worst case for resume: every job replays from its last cadence
	// checkpoint).
	ckptDir := filepath.Join(dir, "ckpt")
	firstOut := filepath.Join(dir, "first.fasta")
	o = defaultOpts(in, firstOut)
	o.workflow = cannedSpec
	o.checkpoint = ckptDir
	o.CheckpointEvery = 3
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if string(readFile(t, firstOut)) != string(base) {
		t.Fatal("checkpointed workflow run differs from baseline")
	}

	// Resumed process over the same spec and checkpoint directory.
	resumedOut := filepath.Join(dir, "resumed.fasta")
	o = defaultOpts(in, resumedOut)
	o.workflow = cannedSpec
	o.checkpoint = ckptDir
	o.CheckpointEvery = 3
	o.Resume = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if string(readFile(t, resumedOut)) != string(base) {
		t.Error("resumed workflow run differs from baseline")
	}

	// Crash injection mid-plan with in-memory checkpoints.
	crashOut := filepath.Join(dir, "crash.fasta")
	o = defaultOpts(in, crashOut)
	o.workflow = cannedSpec
	o.CheckpointEvery = 3
	o.faultPlan = "9:1"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if string(readFile(t, crashOut)) != string(base) {
		t.Error("fault-injected workflow run differs from baseline")
	}
}

// TestWorkflowSpecRejected covers the fail-early paths: type errors,
// unknown ops, and flag combinations are reported before any assembly. The
// input does not exist, so a case that read it first would fail on that.
func TestWorkflowSpecRejected(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "missing.fastq")
	out := filepath.Join(dir, "x.fasta")

	cases := []struct {
		mutate func(*cliOpts)
		want   string
	}{
		{func(o *cliOpts) { o.workflow = "build,merge,fasta" }, `needs "labels"`},
		// A rebuilt mixed graph is inoperable until link restores its
		// adjacency; skipping link must be a type error, not silent damage.
		{func(o *cliOpts) { o.workflow = "build,label,merge,rebuild,tiptrim,label,merge,fasta" }, `needs "graph"`},
		{func(o *cliOpts) { o.workflow = "build,link,fasta" }, `needs "mixed"`},
		{func(o *cliOpts) { o.workflow = cannedSpec; o.Rounds = 1 }, "-rounds is ignored"},
		{func(o *cliOpts) {
			o.workflow = "build,label,merge,fasta"
			o.scaffoldOut = "nowhere.fasta"
		}, "no scaffold op"},
		{func(o *cliOpts) { o.workflow = "frobnicate" }, "unknown op"},
		// The partition op and its placement schemes are gone: hash is the
		// only placement, so the op name is refused like any unknown one.
		{func(o *cliOpts) { o.workflow = "partition:scheme=hash," + cannedSpec }, `unknown op "partition"`},
		// So are the stage and trace ops: ops hand over in memory, and
		// -trace/-metrics observe any spec.
		{func(o *cliOpts) { o.workflow = "build,stage,label,merge,fasta" }, `unknown op "stage"`},
		{func(o *cliOpts) { o.workflow = "trace:file=t.jsonl," + cannedSpec }, `unknown op "trace"`},
		{func(o *cliOpts) { o.workflow = "build,label,merge" }, "writes no output"},
		{func(o *cliOpts) { o.workflow = cannedSpec + ",scaffold" }, "-scaffold gives no output path"},
		{func(o *cliOpts) { o.workflow = "build,label,merge,fasta"; o.gfa = filepath.Join(dir, "g.gfa") }, "-gfa needs the error-corrected graph"},
		{func(o *cliOpts) { o.Rounds = 3 }, "Rounds must be 1 or 2"},
		{func(o *cliOpts) { o.CheckpointEvery, o.checkpoint = -1, filepath.Join(dir, "ckpt") }, "CheckpointEvery must not be negative"},
		{func(o *cliOpts) { o.workflow = "build:k=banana,label,merge,fasta" }, "want an integer"},
		// k is checked when the spec is parsed, whether -k or the spec sets it.
		{func(o *cliOpts) { o.K = 20 }, `op "build": dna: k=20 must be odd`},
		{func(o *cliOpts) { o.workflow = "build:k=33,label,merge,fasta" }, `op "build": dna: k=33 out of range`},
	}
	for _, c := range cases {
		o := defaultOpts(in, out)
		c.mutate(&o)
		err := run(o)
		if err == nil {
			t.Errorf("workflow %q accepted", o.workflow)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("workflow %q: error %q does not contain %q", o.workflow, err, c.want)
		}
	}
}
