package main

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func defaultOpts(in, out string) cliOpts {
	return cliOpts{
		in: in, out: out, k: 15, theta: 1, tip: 80, editDist: 5,
		workers: 3, labeler: "lr", rounds: 2, quiet: true,
		insert: 0, insertSD: 0, minSupport: 3, scafMinLen: 500,
	}
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
	o.k = 21
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
	o.rounds = 1
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
// be on disk.
func TestScaffoldFailureKeepsContigs(t *testing.T) {
	dir := t.TempDir()
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
	in := writeReadsFastq(t, dir, readsim.Interleave(pairs))
	out := filepath.Join(dir, "contigs.fasta")
	o := defaultOpts(in, out)
	o.scaffoldOut = filepath.Join(dir, "scaffolds.fasta")
	o.scafMinLen = 1 << 30 // exclude everything: insert estimation must fail
	if err := run(o); err == nil {
		t.Fatal("scaffolding with no linkable contigs succeeded")
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("contigs output lost on scaffolding failure: %v", err)
	}
	if _, err := os.Stat(o.scaffoldOut); !os.IsNotExist(err) {
		t.Error("scaffold file written despite failure")
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
	o.ckptEvery = 3
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
	o.resume = true
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
// round never fires, and the summary of the canned pipeline and of a
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
// canned pipeline and under -workflow alike, and writes no contigs — never a
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
