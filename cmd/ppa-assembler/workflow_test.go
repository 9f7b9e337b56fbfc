package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppaassembler/internal/genome"
	"ppaassembler/internal/readsim"
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

// TestWorkflowSpecMatchesCannedPipeline: composing the stock pipeline as a
// -workflow spec must write byte-identical contig FASTA to the canned
// core.Assemble path.
func TestWorkflowSpecMatchesCannedPipeline(t *testing.T) {
	dir := t.TempDir()
	in := workflowTestReads(t, dir)

	cannedOut := filepath.Join(dir, "canned.fasta")
	if err := run(defaultOpts(in, cannedOut)); err != nil {
		t.Fatal(err)
	}

	wfOut := filepath.Join(dir, "wf.fasta")
	o := defaultOpts(in, wfOut)
	o.workflow = cannedSpec
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	canned, wf := readFile(t, cannedOut), readFile(t, wfOut)
	if len(canned) == 0 {
		t.Fatal("canned pipeline wrote no contigs")
	}
	if string(canned) != string(wf) {
		t.Error("-workflow composition of the stock pipeline differs from core.Assemble output")
	}
}

// TestWorkflowScaffoldMatchesCannedPipeline runs the paired golden dataset
// through a -workflow spec ending in scaffold and demands byte-identical
// contig and scaffold FASTA against the canned -scaffold path.
func TestWorkflowScaffoldMatchesCannedPipeline(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)

	canned := defaultOpts(readsPath, filepath.Join(dir, "c.fasta"))
	canned.k = 21
	canned.workers = 4
	canned.scaffoldOut = filepath.Join(dir, "c_scaf.fasta")
	canned.insert, canned.insertSD = 650, 55
	if err := run(canned); err != nil {
		t.Fatal(err)
	}

	wf := defaultOpts(readsPath, filepath.Join(dir, "w.fasta"))
	wf.k = 21
	wf.workers = 4
	wf.scaffoldOut = filepath.Join(dir, "w_scaf.fasta")
	wf.insert, wf.insertSD = 650, 55
	wf.workflow = cannedSpec + ",scaffold"
	if err := run(wf); err != nil {
		t.Fatal(err)
	}

	if string(readFile(t, canned.out)) != string(readFile(t, wf.out)) {
		t.Error("workflow contig FASTA differs from canned pipeline")
	}
	if string(readFile(t, canned.scaffoldOut)) != string(readFile(t, wf.scaffoldOut)) {
		t.Error("workflow scaffold FASTA differs from canned pipeline")
	}
}

// TestWorkflowStagedSeamMatchesInMemory: inserting a shardio staging seam
// between ops must not change the assembly output byte-for-byte.
func TestWorkflowStagedSeamMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	in := workflowTestReads(t, dir)

	memOut := filepath.Join(dir, "mem.fasta")
	o := defaultOpts(in, memOut)
	o.workflow = cannedSpec
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	stagedOut := filepath.Join(dir, "staged.fasta")
	o = defaultOpts(in, stagedOut)
	o.workflow = "build,stage:dir=" + filepath.Join(dir, "seam1") +
		",label,merge,bubble,rebuild,stage:dir=" + filepath.Join(dir, "seam2") +
		",link,tiptrim,label,merge,fasta"
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	if string(readFile(t, memOut)) != string(readFile(t, stagedOut)) {
		t.Error("shardio-staged plan differs from its all-in-memory twin")
	}
	// The explicit seam directories must hold real part-files.
	for _, seam := range []string{"seam1", "seam2"} {
		if _, err := os.Stat(filepath.Join(dir, seam, "segments", "part-00000")); err != nil {
			t.Errorf("staging seam %s left no part-files: %v", seam, err)
		}
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
	o.ckptEvery = 3
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
	o.ckptEvery = 3
	o.resume = true
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
	o.ckptEvery = 3
	o.faultPlan = "9:1"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if string(readFile(t, crashOut)) != string(base) {
		t.Error("fault-injected workflow run differs from baseline")
	}
}

// TestWorkflowKillAndResumeNonDefaultPartitioner is the recovery contract
// under a non-default placement: a checkpointed -workflow run under the
// minimizer partitioner resumes byte-identically, and a resume attempt
// under a different partitioner is rejected with an error naming the
// mismatch instead of silently scattering partition-local state.
func TestWorkflowKillAndResumeNonDefaultPartitioner(t *testing.T) {
	dir := t.TempDir()
	in := workflowTestReads(t, dir)

	baseOut := filepath.Join(dir, "base.fasta")
	o := defaultOpts(in, baseOut)
	o.workflow = cannedSpec
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	base := readFile(t, baseOut)

	ckptDir := filepath.Join(dir, "ckpt")
	firstOut := filepath.Join(dir, "first.fasta")
	o = defaultOpts(in, firstOut)
	o.workflow = cannedSpec
	o.partitioner = "minimizer"
	o.checkpoint = ckptDir
	o.ckptEvery = 3
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if string(readFile(t, firstOut)) != string(base) {
		t.Fatal("minimizer-partitioned workflow run differs from hash baseline")
	}

	// Resume under the same placement fast-forwards to identical output.
	resumedOut := filepath.Join(dir, "resumed.fasta")
	o = defaultOpts(in, resumedOut)
	o.workflow = cannedSpec
	o.partitioner = "minimizer"
	o.checkpoint = ckptDir
	o.ckptEvery = 3
	o.resume = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if string(readFile(t, resumedOut)) != string(base) {
		t.Error("resumed minimizer workflow run differs from baseline")
	}

	// Resume under a different placement must fail loudly.
	o = defaultOpts(in, filepath.Join(dir, "wrong.fasta"))
	o.workflow = cannedSpec
	o.partitioner = "range"
	o.checkpoint = ckptDir
	o.ckptEvery = 3
	o.resume = true
	err := run(o)
	if err == nil {
		t.Fatal("resume under a different partitioner succeeded")
	}
	if !strings.Contains(err.Error(), `partitioner "minimizer"`) || !strings.Contains(err.Error(), `"range"`) {
		t.Errorf("error %q does not name the partitioner mismatch", err)
	}
}

// TestPartitionerFlagRejected: an unknown -partitioner fails before any
// assembly, in both the canned and -workflow paths, and the partition
// spec op validates its scheme at parse time.
func TestPartitionerFlagRejected(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGTACGTACGT"})
	for _, mutate := range []func(*cliOpts){
		func(o *cliOpts) { o.partitioner = "frobnicate" },
		func(o *cliOpts) { o.partitioner = "frobnicate"; o.workflow = cannedSpec },
		func(o *cliOpts) { o.workflow = "partition:scheme=frobnicate," + cannedSpec },
		func(o *cliOpts) { o.partitioner = "affinity" },
		func(o *cliOpts) { o.workflow = "partition:scheme=affinity," + cannedSpec },
	} {
		o := defaultOpts(in, filepath.Join(dir, "x.fasta"))
		mutate(&o)
		err := run(o)
		if err == nil || !strings.Contains(err.Error(), "unknown partitioner") {
			t.Errorf("partitioner %q workflow %q: expected unknown-partitioner error, got %v", o.partitioner, o.workflow, err)
		}
	}
	// A partition op mid-spec is accepted and applies to later graphs.
	o := defaultOpts(in, filepath.Join(dir, "y.fasta"))
	o.workflow = "partition:scheme=range:k=15," + cannedSpec
	if err := run(o); err != nil {
		t.Errorf("partition spec op rejected: %v", err)
	}
	// A k-mer-aware -partitioner sized by -k must be rejected when the
	// spec builds with a different k (the placement would silently
	// degenerate) — unless a partition op in the spec supersedes the flag.
	o = defaultOpts(in, filepath.Join(dir, "z.fasta"))
	o.partitioner = "range"
	o.workflow = "build:k=11," + "label,merge,fasta"
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), "k=11") {
		t.Errorf("k-mismatched -partitioner range accepted: %v", err)
	}
	o = defaultOpts(in, filepath.Join(dir, "w.fasta"))
	o.partitioner = "range"
	o.workflow = "partition:scheme=range:k=11,build:k=11,label,merge,fasta"
	if err := run(o); err != nil {
		t.Errorf("spec-sized partition op rejected: %v", err)
	}
}

// TestWorkflowSpecRejected covers the fail-early paths: type errors,
// unknown ops, and flag combinations are reported before any assembly.
func TestWorkflowSpecRejected(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGTACGTACGT"})
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
		{func(o *cliOpts) { o.workflow = "stage,build,label,merge,fasta" }, "needs one of"},
		{func(o *cliOpts) { o.workflow = cannedSpec; o.rounds = 1 }, "-rounds is ignored"},
		{func(o *cliOpts) {
			o.workflow = "build,label,merge,fasta"
			o.scaffoldOut = "nowhere.fasta"
		}, "no scaffold op"},
		{func(o *cliOpts) { o.workflow = "frobnicate" }, "unknown op"},
		{func(o *cliOpts) { o.workflow = "build,label,merge" }, "writes no output"},
		{func(o *cliOpts) { o.workflow = cannedSpec + ",scaffold" }, "-scaffold gives no output path"},
		{func(o *cliOpts) { o.workflow = cannedSpec; o.gfa = filepath.Join(dir, "g.gfa") }, "-gfa is not supported"},
		{func(o *cliOpts) { o.workflow = "build:k=banana,label,merge,fasta" }, "want an integer"},
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
