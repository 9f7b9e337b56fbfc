package main

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ppaassembler/internal/core"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/quality"
	"ppaassembler/internal/readsim"
)

func writeReadsFastq(t *testing.T, dir string, reads []string) string {
	t.Helper()
	path := filepath.Join(dir, "reads.fastq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs := make([]fastx.Record, len(reads))
	for i, r := range reads {
		recs[i] = fastx.Record{Name: "r", Seq: r}
	}
	if err := fastx.WriteFastq(f, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// defaultOpts is the paper's parameters at k=15 on 3 workers, on the
// sequential schedule, writing in to out without a summary.
func defaultOpts(in, out string) cliOpts {
	o := cliOpts{Options: core.DefaultOptions(3), in: in, out: out, labeler: "lr", quiet: true}
	o.K, o.Parallel = 15, false
	return o
}

func TestEndToEndCLI(t *testing.T) {
	dir := t.TempDir()
	ref, err := genome.Generate(genome.Spec{Name: "t", Length: 20_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 80, Coverage: 15, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	in := writeReadsFastq(t, dir, reads)
	out := filepath.Join(dir, "contigs.fasta")
	o := defaultOpts(in, out)
	o.gfa = filepath.Join(dir, "graph.gfa")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := fastx.ReadFasta(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no contigs written")
	}
	total := 0
	for _, r := range recs {
		total += len(r.Seq)
		if !strings.Contains(ref.String(), r.Seq) &&
			!strings.Contains(ref.ReverseComplement().String(), r.Seq) {
			t.Errorf("contig %s is not a reference substring", r.Name)
		}
	}
	if total < 15_000 {
		t.Errorf("contigs cover %d of 20000 bases", total)
	}
	gfaData, err := os.ReadFile(o.gfa)
	if err != nil {
		t.Fatalf("GFA not written: %v", err)
	}
	if !strings.HasPrefix(string(gfaData), "H\tVN:Z:1.0") {
		t.Error("GFA header missing")
	}
}

// TestEndToEndScaffolding is the subsystem acceptance scenario: simulate
// pairs from a repeat-bearing genome, assemble (contigs break at the
// repeats), scaffold, and check that at least one multi-contig scaffold is
// produced with correctly sized gaps and zero misjoins against the known
// reference.
func TestEndToEndScaffolding(t *testing.T) {
	dir := t.TempDir()
	ref, err := genome.Generate(genome.Spec{
		Name: "t", Length: 40_000, Repeats: 3, RepeatLen: 300, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	const insertMean, insertSD = 700.0, 60.0
	pairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 25, SubRate: 0.001, Seed: 78},
		InsertMean: insertMean, InsertSD: insertSD,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := writeReadsFastq(t, dir, readsim.Interleave(pairs))
	out := filepath.Join(dir, "contigs.fasta")
	scafOut := filepath.Join(dir, "scaffolds.fasta")
	o := defaultOpts(in, out)
	o.K = 21
	o.scaffoldOut = scafOut
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	sf, err := os.Open(scafOut)
	if err != nil {
		t.Fatalf("scaffold FASTA not written: %v", err)
	}
	defer sf.Close()
	recs, err := fastx.ReadFasta(sf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no scaffolds written")
	}
	var scafs []quality.ScaffoldParts
	maxParts := 0
	for _, r := range recs {
		p := quality.ParseScaffold(r.Seq)
		scafs = append(scafs, p)
		if len(p.Contigs) > maxParts {
			maxParts = len(p.Contigs)
		}
	}
	if maxParts < 2 {
		t.Fatal("no multi-contig scaffold produced")
	}
	rep := quality.EvaluateScaffolds(scafs, ref, 0, int(2*insertSD))
	if rep.Misjoins != 0 {
		t.Errorf("misjoins = %d, want 0", rep.Misjoins)
	}
	if rep.Joins == 0 {
		t.Error("no evaluated joins")
	}
	if rep.GapsOutOfTolerance != 0 {
		t.Errorf("%d of %d gaps deviate more than 2 insert s.d. (mean abs error %.0f)",
			rep.GapsOutOfTolerance, rep.GapsEvaluated, rep.MeanAbsGapError)
	}
}

func TestCLIRejectsBadLabeler(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGT"})
	o := defaultOpts(in, "-")
	o.labeler = "bogus"
	if err := run(o); err == nil {
		t.Fatal("bogus labeler accepted")
	}
}

// TestCLIValidatesGFARoundsUpFront checks that the -gfa / -rounds conflict
// is reported before assembly runs or any output file is created.
func TestCLIValidatesGFARoundsUpFront(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGT"})
	out := filepath.Join(dir, "contigs.fasta")
	o := defaultOpts(in, out)
	o.Rounds = 1
	o.gfa = filepath.Join(dir, "graph.gfa")
	if err := run(o); err == nil {
		t.Fatal("-gfa with -rounds 1 accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("contigs file was written despite the flag conflict")
	}
}

func TestCLIRejectsOddPairedInput(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGT", "TTACGGACGTACGTAC", "GGACGTACGTACGTAC"})
	out := filepath.Join(dir, "contigs.fasta")
	o := defaultOpts(in, out)
	o.scaffoldOut = filepath.Join(dir, "scaffolds.fasta")
	if err := run(o); err == nil {
		t.Fatal("odd interleaved read count accepted with -scaffold")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("contigs file was written despite the pairing error")
	}
}

// TestScaffoldFailureKeepsContigs: when scaffolding fails after a
// successful assembly (here: every contig is below -scafminlen, so there is
// nothing to estimate the insert size from), the contig output must already
// be on disk — for the default workflow and for an explicit spec ending
// fasta,scaffold alike.
func TestScaffoldFailureKeepsContigs(t *testing.T) {
	dir := t.TempDir()
	in := pairedTestReads(t, dir)
	for _, spec := range []string{"", cannedSpec + ",scaffold"} {
		out := filepath.Join(dir, "contigs.fasta")
		os.Remove(out)
		o := defaultOpts(in, out)
		o.workflow = spec
		o.scaffoldOut = filepath.Join(dir, "scaffolds.fasta")
		o.Scaffold.MinContigLen = 1 << 30 // exclude everything: insert estimation must fail
		if err := run(o); err == nil {
			t.Fatalf("workflow %q: scaffolding with no linkable contigs succeeded", spec)
		}
		if _, err := os.Stat(out); err != nil {
			t.Errorf("workflow %q: contigs output lost on scaffolding failure: %v", spec, err)
		}
		if _, err := os.Stat(o.scaffoldOut); !os.IsNotExist(err) {
			t.Errorf("workflow %q: scaffold file written despite failure", spec)
		}
	}
}

// pairedTestReads writes interleaved read pairs of a small genome.
func pairedTestReads(t *testing.T, dir string) string {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{Name: "t", Length: 15_000, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 80, Coverage: 15, Seed: 56},
		InsertMean: 400, InsertSD: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return writeReadsFastq(t, dir, readsim.Interleave(pairs))
}

// TestOutputWriteFailureExits: a contig, scaffold or GFA output that cannot
// be written (here /dev/full, where every write fails) makes the command
// exit non-zero with an error naming the path.
func TestOutputWriteFailureExits(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skip(full + " is not available")
	}
	dir := t.TempDir()
	in := pairedTestReads(t, dir)
	for _, outputs := range [][]string{
		{"-out", full},
		{"-scaffold", full},
		{"-gfa", full},
	} {
		args := []string{"-in", in, "-out", filepath.Join(dir, "c.fasta"), "-k", "15", "-workers", "3", "-insert", "400", "-q"}
		if outputs[0] != "-scaffold" {
			args = append(args, "-scaffold", filepath.Join(dir, "s.fasta"))
		}
		args = append(args, outputs...)
		var code int
		stderr := captureStderr(t, func() { code = cliMain(args) })
		if code == 0 {
			t.Errorf("%s %s: exit status 0", outputs[0], full)
		}
		if !strings.Contains(stderr, full) {
			t.Errorf("%s %s: error does not name the path: %q", outputs[0], full, stderr)
		}
	}
}

func TestLoadReadsPlainText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.txt")
	if err := os.WriteFile(path, []byte("ACGT\n\nTTGCA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reads, err := loadReadList(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 {
		t.Errorf("reads = %v", reads)
	}
}

func TestLoadReadsFasta(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fasta")
	if err := os.WriteFile(path, []byte(">a\nACGT\n>b\nGGTT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reads, err := loadReadList(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 {
		t.Errorf("reads = %v", reads)
	}
}

func TestLoadReadsGzippedFastq(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if err := fastx.WriteFastq(gz, []fastx.Record{{Name: "a", Seq: "ACGTACGT"}, {Name: "b", Seq: "TTGGCCAA"}}); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reads, err := loadReadList(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 || reads[0] != "ACGTACGT" || reads[1] != "TTGGCCAA" {
		t.Errorf("reads = %v", reads)
	}
}

func TestLoadReadsMissingFile(t *testing.T) {
	if _, err := loadReadList(filepath.Join(t.TempDir(), "nope.fastq")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCLIRejectsDirectoryInput: -in naming a directory fails with an error
// that names it, and writes no contigs.
func TestCLIRejectsDirectoryInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "reads")
	if err := os.Mkdir(in, 0o755); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.fasta")
	code := -1
	stderr := captureStderr(t, func() { code = cliMain([]string{"-in", in, "-out", out, "-q"}) })
	if code != 1 || !strings.Contains(stderr, in) || !strings.Contains(stderr, "directory") {
		t.Errorf("-in %s: exit %d, stderr %q; want exit 1 and an error naming the directory", in, code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("contigs file was written")
	}
}

// TestEndToEndFaultInjection drives the new fault-tolerance flags end to
// end: the same input assembled with and without an injected mid-pipeline
// crash (checkpointing to disk) must produce byte-identical contig FASTA.
func TestEndToEndFaultInjection(t *testing.T) {
	dir := t.TempDir()
	ref, err := genome.Generate(genome.Spec{Name: "t", Length: 15_000, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 80, Coverage: 14, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	in := writeReadsFastq(t, dir, reads)

	clean := filepath.Join(dir, "clean.fasta")
	o := defaultOpts(in, clean)
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	faulty := filepath.Join(dir, "faulty.fasta")
	o = defaultOpts(in, faulty)
	o.checkpoint = filepath.Join(dir, "ckpts")
	o.CheckpointEvery = 3
	o.faultPlan = "7:1,15:2"
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), ">") || string(a) != string(b) {
		t.Error("fault-injected run did not recover to byte-identical contigs")
	}
	entries, err := os.ReadDir(o.checkpoint)
	if err != nil || len(entries) == 0 {
		t.Errorf("no checkpoint files written to %s (err=%v)", o.checkpoint, err)
	}
}

// TestCLIRejectsResumeWithoutDir: -resume without -checkpoint is a flag
// error reported before any work is done.
func TestCLIRejectsResumeWithoutDir(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGT"})
	o := defaultOpts(in, filepath.Join(dir, "out.fasta"))
	o.Resume = true
	if err := run(o); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}

// TestCLIRejectsBadFaultPlan: a malformed -faultplan fails fast.
func TestCLIRejectsBadFaultPlan(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGT"})
	o := defaultOpts(in, filepath.Join(dir, "out.fasta"))
	o.faultPlan = "12-banana"
	if err := run(o); err == nil {
		t.Fatal("malformed fault plan accepted")
	}
}

// TestCLIRejectsRepeatedFaultRound: two faults at one round would fire
// only the first, so -faultplan refuses them before any work, naming both.
func TestCLIRejectsRepeatedFaultRound(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGT"})
	out := filepath.Join(dir, "out.fasta")
	o := defaultOpts(in, out)
	o.faultPlan = "3:0,3:1"
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), `"3:0"`) || !strings.Contains(err.Error(), `"3:1"`) {
		t.Fatalf("want an error naming both entries, got %v", err)
	}
	if _, serr := os.Stat(out); serr == nil {
		t.Error("contigs written despite the refused fault plan")
	}
}

// TestCLIFaultSummaryCountsUnfired: a fault scheduled past the run's last
// round never fires, and the summary of the default workflow and of a
// -workflow run says so instead of "all recovered".
func TestCLIFaultSummaryCountsUnfired(t *testing.T) {
	dir := t.TempDir()
	ref, err := genome.Generate(genome.Spec{Name: "t", Length: 5_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 80, Coverage: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	in := writeReadsFastq(t, dir, reads)
	for _, spec := range []string{"", "build,label,merge,fasta"} {
		o := defaultOpts(in, filepath.Join(dir, "out.fasta"))
		o.quiet, o.workflow, o.faultPlan = false, spec, "0:0,99999:1"
		summary := captureStderr(t, func() {
			if err := run(o); err != nil {
				t.Fatal(err)
			}
		})
		const want = "faults injected:   1/2 fired, 1 recovered, 1 never fired"
		if !strings.Contains(summary, want) || strings.Contains(summary, "all recovered") {
			t.Errorf("workflow %q: summary lacks %q:\n%s", spec, want, summary)
		}
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCLIRejectsZeroWorkers: -workers 0 is an error naming Workers, on the
// default workflow and under -workflow alike, and writes no contigs — never a
// run with every other flag silently reset to its default.
func TestCLIRejectsZeroWorkers(t *testing.T) {
	dir := t.TempDir()
	in := writeReadsFastq(t, dir, []string{"ACGTACGTACGTACGT"})
	out := filepath.Join(dir, "out.fasta")
	for _, extra := range [][]string{nil, {"-workflow", "build,label,merge,fasta"}} {
		args := append([]string{"-in", in, "-out", out, "-workers", "0", "-k", "31", "-q"}, extra...)
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o); err == nil || !strings.Contains(err.Error(), "Workers") {
			t.Errorf("%v: want an error naming Workers, got %v", args, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: contigs file was written", args)
		}
	}
}

// TestFlagDefaultsAreDefaultOptions: a command line without the paper's
// parameter flags assembles with core.DefaultOptions(4), every field of it.
func TestFlagDefaultsAreDefaultOptions(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultOptions(4); !reflect.DeepEqual(o.Options, want) {
		t.Errorf("flag defaults = %+v, DefaultOptions(4) = %+v", o.Options, want)
	}
}

// TestHelpMatchesGolden pins the command's whole surface: -h must print
// every flag with its type, default and text exactly as
// testdata/help.golden has them. Regenerate the file only for a deliberate
// change of the command line.
func TestHelpMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code := -1
	got := captureStderr(t, func() { code = cliMain([]string{"-h"}) })
	if code != 0 {
		t.Errorf("-h exits %d, want 0", code)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("-h differs from testdata/help.golden at line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
}
