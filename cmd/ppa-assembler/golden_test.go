package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/quality"
	"ppaassembler/internal/readsim"
)

// Golden metrics for the end-to-end pipeline
// readsim -paired → ppa-assembler -scaffold → quastlite -scaffolds
// on the fixed golden genome below. The pipeline is deterministic (fixed
// seeds, deterministic engine shuffle), so these are exact equality
// assertions: any drift in assembly or scaffolding quality fails this test
// and must be either fixed or consciously re-baselined.
const (
	goldenContigN50    = 20078
	goldenNumContigs   = 6
	goldenScaffoldN50  = 39586
	goldenNumScaffolds = 5
	goldenMultiContig  = 1
	goldenJoins        = 5
	goldenMisjoins     = 0
)

// goldenPipelineFiles materializes the golden dataset exactly as
// `readsim -paired` would: a repeat-bearing reference FASTA plus an
// interleaved paired FASTQ.
func goldenPipelineFiles(t *testing.T, dir string) (refPath, readsPath string, ref dna.Seq) {
	t.Helper()
	g, err := genome.Generate(genome.Spec{
		Name: "golden", Length: 40_000, Repeats: 3, RepeatLen: 300, Seed: 1009,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := readsim.SimulatePairs(g, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 20, SubRate: 0.001, Seed: 1013},
		InsertMean: 650, InsertSD: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	refPath = filepath.Join(dir, "ref.fasta")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if err := fastx.WriteFasta(rf, []fastx.Record{{Name: "golden", Seq: g.String()}}, 70); err != nil {
		t.Fatal(err)
	}
	reads := readsim.Interleave(pairs)
	readsPath = filepath.Join(dir, "pairs.fastq")
	qf, err := os.Create(readsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	recs := make([]fastx.Record, len(reads))
	for i, r := range reads {
		recs[i] = fastx.Record{Name: "p", Seq: r}
	}
	if err := fastx.WriteFastq(qf, recs); err != nil {
		t.Fatal(err)
	}
	return refPath, readsPath, g
}

// TestGoldenPipelineMetrics locks the full tool chain end to end: simulated
// paired reads are assembled and scaffolded through the assembler CLI's own
// run path, then the outputs are scored through quastlite's evaluation code,
// and the resulting N50/join/misjoin metrics must equal the checked-in
// golden values.
func TestGoldenPipelineMetrics(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, ref := goldenPipelineFiles(t, dir)
	contigsOut := filepath.Join(dir, "contigs.fasta")
	scaffoldsOut := filepath.Join(dir, "scaffolds.fasta")
	o := defaultOpts(readsPath, contigsOut)
	o.k = 21
	o.workers = 4
	o.scaffoldOut = scaffoldsOut
	o.insert = 650
	o.insertSD = 55
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	// quastlite's contig evaluation.
	contigs := readFastaSeqs(t, contigsOut)
	rep := quality.Evaluate(contigs, ref, quality.MinContigLen)
	if rep.N50 != goldenContigN50 {
		t.Errorf("contig N50 = %d, want %d", rep.N50, goldenContigN50)
	}
	if rep.NumContigs != goldenNumContigs {
		t.Errorf("# contigs = %d, want %d", rep.NumContigs, goldenNumContigs)
	}
	if rep.Misassemblies != 0 {
		t.Errorf("# misassemblies = %d, want 0", rep.Misassemblies)
	}

	// quastlite -scaffolds evaluation.
	srecs := readFastaRecords(t, scaffoldsOut)
	parts := make([]quality.ScaffoldParts, len(srecs))
	for i, r := range srecs {
		parts[i] = quality.ParseScaffold(r.Seq)
	}
	srep := quality.EvaluateScaffolds(parts, ref, 0, 2*55)
	if srep.ScaffoldN50 != goldenScaffoldN50 {
		t.Errorf("scaffold N50 = %d, want %d", srep.ScaffoldN50, goldenScaffoldN50)
	}
	if srep.NumScaffolds != goldenNumScaffolds {
		t.Errorf("# scaffolds = %d, want %d", srep.NumScaffolds, goldenNumScaffolds)
	}
	if srep.MultiContig != goldenMultiContig {
		t.Errorf("multi-contig scaffolds = %d, want %d", srep.MultiContig, goldenMultiContig)
	}
	if srep.Joins != goldenJoins {
		t.Errorf("# joins = %d, want %d", srep.Joins, goldenJoins)
	}
	if srep.Misjoins != goldenMisjoins {
		t.Errorf("# misjoins = %d, want %d", srep.Misjoins, goldenMisjoins)
	}
	if srep.ScaffoldN50 <= rep.N50 {
		t.Errorf("scaffolding did not improve N50: scaffold %d <= contig %d", srep.ScaffoldN50, rep.N50)
	}
	t.Logf("golden pipeline: contigN50=%d numContigs=%d scaffoldN50=%d numScaffolds=%d multi=%d joins=%d misjoins=%d",
		rep.N50, rep.NumContigs, srep.ScaffoldN50, srep.NumScaffolds, srep.MultiContig, srep.Joins, srep.Misjoins)
}

// TestGoldenPipelinePartitionerIdentical re-runs the golden pipeline under
// every non-default partitioner through the CLI's own run path and demands
// byte-identical contig and scaffold FASTA against the hash default —
// locality-aware placement may only change where vertices live and what
// the wire carries, never what the assembler writes.
func TestGoldenPipelinePartitionerIdentical(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	outs := map[string][2]string{}
	for _, partitioner := range []string{"hash", "range", "minimizer"} {
		contigsOut := filepath.Join(dir, "contigs_"+partitioner+".fasta")
		scaffoldsOut := filepath.Join(dir, "scaffolds_"+partitioner+".fasta")
		o := defaultOpts(readsPath, contigsOut)
		o.k = 21
		o.workers = 4
		o.partitioner = partitioner
		o.scaffoldOut = scaffoldsOut
		o.insert = 650
		o.insertSD = 55
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		outs[partitioner] = [2]string{contigsOut, scaffoldsOut}
	}
	for partitioner, paths := range outs {
		for i, name := range []string{"contig", "scaffold"} {
			base, err := os.ReadFile(outs["hash"][i])
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			if string(base) != string(got) {
				t.Errorf("%s FASTA differs between -partitioner %s and hash", name, partitioner)
			}
		}
	}
}

// TestDefaultScheduleIsParallel pins the default users get: a command line
// without -parallel reaches the engine with Parallel set, -parallel=false is
// the sequential reference schedule, and the two write identical contigs and
// scaffolds.
func TestDefaultScheduleIsParallel(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	var outs [2][2][]byte
	for i, extra := range [][]string{nil, {"-parallel=false"}} {
		contigs := filepath.Join(dir, fmt.Sprintf("contigs%d.fasta", i))
		scaffolds := filepath.Join(dir, fmt.Sprintf("scaffolds%d.fasta", i))
		o, err := parseFlags(append([]string{"-in", readsPath, "-out", contigs, "-scaffold", scaffolds, "-q"}, extra...))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := cannedOptions(o, &observability{})
		if err != nil {
			t.Fatal(err)
		}
		if want := extra == nil; o.parallel != want || opt.Parallel != want || opt.Env(nil).Config().Parallel != want {
			t.Errorf("args %v: flag %v, core.Options %v, pregel.Config %v; want Parallel=%v all the way down",
				extra, o.parallel, opt.Parallel, opt.Env(nil).Config().Parallel, want)
		}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		for j, path := range []string{contigs, scaffolds} {
			if outs[i][j], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(outs[0][0]) == 0 || len(outs[0][1]) == 0 {
		t.Fatal("default run wrote an empty FASTA")
	}
	if !bytes.Equal(outs[0][0], outs[1][0]) || !bytes.Equal(outs[0][1], outs[1][1]) {
		t.Error("default and -parallel=false runs wrote different contigs or scaffolds")
	}
}

// TestGoldenPipelineParallelIdentical re-runs the golden pipeline with
// Parallel workers and demands byte-identical output files.
func TestGoldenPipelineParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	_, readsPath, _ := goldenPipelineFiles(t, dir)
	outs := map[bool][2]string{}
	for _, parallel := range []bool{false, true} {
		suffix := "seq"
		if parallel {
			suffix = "par"
		}
		contigsOut := filepath.Join(dir, "contigs_"+suffix+".fasta")
		scaffoldsOut := filepath.Join(dir, "scaffolds_"+suffix+".fasta")
		o := defaultOpts(readsPath, contigsOut)
		o.k = 21
		o.workers = 4
		o.parallel = parallel
		o.scaffoldOut = scaffoldsOut
		o.insert = 650
		o.insertSD = 55
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		outs[parallel] = [2]string{contigsOut, scaffoldsOut}
	}
	for i, name := range []string{"contig", "scaffold"} {
		seqBytes, err := os.ReadFile(outs[false][i])
		if err != nil {
			t.Fatal(err)
		}
		parBytes, err := os.ReadFile(outs[true][i])
		if err != nil {
			t.Fatal(err)
		}
		if string(seqBytes) != string(parBytes) {
			t.Errorf("%s FASTA differs between -parallel and sequential runs", name)
		}
	}
}

func readFastaRecords(t *testing.T, path string) []fastx.Record {
	t.Helper()
	f, err := fastx.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := fastx.ReadFasta(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func readFastaSeqs(t *testing.T, path string) []dna.Seq {
	t.Helper()
	recs := readFastaRecords(t, path)
	out := make([]dna.Seq, len(recs))
	for i, r := range recs {
		out[i] = dna.ParseSeq(r.Seq)
	}
	return out
}
