// Command ppa-assembler runs the full PPA-assembler workflow ①②③④⑤⑥②③ over
// a FASTQ (or plain-text, one read per line) input and writes the assembled
// contigs as FASTA. With -scaffold it appends the paired-end scaffolding
// stage ⑦: the input is then read as interleaved pairs (R1, R2, R1, R2, ...,
// as written by readsim -paired), and ordered, oriented, N-gapped scaffolds
// are written alongside the contigs.
//
// Every run is a workflow spec over the op catalog of internal/core: the
// flags spell the default one (core.Options.Spec, then fasta and with
// -scaffold scaffold), and -workflow replaces it with a user composition.
//
// Usage:
//
//	ppa-assembler -in reads.fastq -out contigs.fasta [flags]
//	ppa-assembler -in pairs.fastq -out contigs.fasta -scaffold scaffolds.fasta [-insert 500]
//	ppa-assembler -in reads.fastq -out contigs.fasta -workflow "build,label,merge,fasta"
//
// Flags mirror the paper's parameters: -k (k-mer length), -theta
// ((k+1)-mer coverage threshold), -tip (tip-length threshold, paper: 80),
// -editdist (bubble edit-distance threshold, paper: 5), -workers (logical
// Pregel workers), -labeler (lr or sv), -rounds (1 or 2). FASTQ/FASTA
// inputs may be gzip-compressed (.fastq.gz, .fa.gz, ...).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ppaassembler/internal/core"
	"ppaassembler/internal/fastx"
)

// cliOpts carries every flag so run stays testable. The assembly and engine
// flags bind straight to the embedded core.Options; the rest name files,
// modes and what core.Options holds in a built form (-labeler, -checkpoint,
// -faultplan).
type cliOpts struct {
	core.Options

	in, out string
	labeler string
	gfa     string
	quiet   bool

	scaffoldOut string

	checkpoint string
	ckptVerify bool
	faultPlan  string

	workflow string

	trace       string
	traceFormat string
	metricsOut  string
	cpuProfile  string
	memProfile  string
}

// parseFlags reads the command line (without the program name) into cliOpts.
func parseFlags(args []string) (cliOpts, error) {
	o := cliOpts{Options: core.DefaultOptions(4)} // the paper's parameters, on 4 workers
	def := o.Options
	var theta uint
	fs := flag.NewFlagSet("ppa-assembler", flag.ContinueOnError)
	fs.StringVar(&o.in, "in", "", "input reads: FASTQ/FASTA file (optionally .gz) or one-read-per-line text file")
	fs.StringVar(&o.out, "out", "contigs.fasta", "output FASTA path (\"-\" for stdout)")
	fs.IntVar(&o.K, "k", def.K, "k-mer length (odd, <= 31)")
	fs.UintVar(&theta, "theta", uint(def.Theta), "drop (k+1)-mers with coverage <= theta")
	fs.IntVar(&o.TipLen, "tip", def.TipLen, "tip-length threshold")
	fs.IntVar(&o.BubbleEditDist, "editdist", def.BubbleEditDist, "bubble edit-distance threshold")
	fs.IntVar(&o.Workers, "workers", def.Workers, "logical Pregel workers")
	fs.BoolVar(&o.Parallel, "parallel", def.Parallel, "run the logical workers on all cores, at most one goroutine per core (-parallel=false runs them one after another: the reference schedule; output is identical either way)")
	fs.StringVar(&o.labeler, "labeler", "lr", "contig labeling algorithm: lr or sv")
	fs.IntVar(&o.Rounds, "rounds", def.Rounds, "labeling+merging rounds of the default workflow (1 = no error correction)")
	fs.IntVar(&o.MinLen, "minlen", def.MinLen, "omit contigs shorter than this from the output")
	fs.StringVar(&o.gfa, "gfa", "", "also write the error-corrected assembly graph in GFA v1 to this path (needs a workflow that links contigs: -rounds 2 or a spec with link)")
	fs.BoolVar(&o.quiet, "q", false, "suppress the run summary")
	fs.StringVar(&o.scaffoldOut, "scaffold", "", "scaffold the contigs with the (interleaved paired) input reads and write scaffold FASTA here")
	fs.Float64Var(&o.Scaffold.InsertMean, "insert", def.Scaffold.InsertMean, "paired-end mean insert size (0 = estimate from the data)")
	fs.Float64Var(&o.Scaffold.InsertSD, "insertsd", def.Scaffold.InsertSD, "insert-size standard deviation (0 = estimate)")
	fs.IntVar(&o.Scaffold.MinSupport, "minsupport", def.Scaffold.MinSupport, "minimum read pairs supporting a scaffold link")
	fs.IntVar(&o.Scaffold.MinContigLen, "scafminlen", def.Scaffold.MinContigLen, "exclude shorter contigs from scaffold linking")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint directory for fault tolerance (empty with -ckpt-every set = in-memory checkpoints)")
	fs.IntVar(&o.CheckpointEvery, "ckpt-every", def.CheckpointEvery, "checkpoint every N supersteps (0 = no checkpointing; implied 5 when -checkpoint or -faultplan is set)")
	fs.BoolVar(&o.ckptVerify, "ckpt-verify", false, "verify the integrity of every artifact in -checkpoint (frame structure, CRC32C checksums), print a per-file report, and exit; no assembly is run")
	fs.StringVar(&o.faultPlan, "faultplan", "", "inject simulated worker crashes: comma-separated ROUND:WORKER pairs counted over all BSP rounds, e.g. \"12:0,57:3\"")
	fs.BoolVar(&o.Resume, "resume", def.Resume, "resume a killed run from the checkpoints in -checkpoint")
	fs.StringVar(&o.workflow, "workflow", "", "compose the assembly as an explicit op workflow instead of the default one -rounds and -scaffold spell, e.g. \"build,label,merge,bubble,rebuild,link,tiptrim:minlen=40,label,merge,fasta\" (unset op parameters inherit the global flags)")
	fs.StringVar(&o.trace, "trace", "", "write a structured trace of every superstep, op, MR phase and checkpoint to this file")
	fs.StringVar(&o.traceFormat, "trace-format", "", "trace file format: jsonl (default) or chrome (load in Perfetto / chrome://tracing)")
	fs.StringVar(&o.metricsOut, "metrics", "", "write engine metrics (Prometheus text format) to this file at exit")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (engine goroutines carry job/phase/worker pprof labels)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	err := fs.Parse(args)
	o.Theta = uint32(theta)
	return o, err
}

func main() { os.Exit(cliMain(os.Args[1:])) }

// cliMain runs the command line (without the program name) and returns the
// process exit status.
func cliMain(args []string) int {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // the flag set has already printed the error and the usage
	}
	if o.ckptVerify {
		if o.checkpoint == "" {
			fmt.Fprintln(os.Stderr, "ppa-assembler: -ckpt-verify requires -checkpoint")
			return 2
		}
		corrupt, err := runCkptVerify(o.checkpoint, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppa-assembler:", err)
			return 1
		}
		if corrupt > 0 {
			return 1
		}
		return 0
	}
	if o.in == "" {
		fmt.Fprintln(os.Stderr, "ppa-assembler: -in is required (see -h)")
		return 2
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ppa-assembler:", err)
		return 1
	}
	return 0
}

func run(o cliOpts) error {
	// Validate flag combinations before any work is done or output written.
	if o.Resume && o.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint (there is nothing to resume from in-memory checkpoints)")
	}
	obs, err := openObservability(o)
	if err != nil {
		return err
	}
	err = runWorkflow(o, obs)
	// Flush the trace/metrics/profile files even when the run failed — a
	// truncated trace of a failed run is exactly when one wants to look.
	if ferr := obs.finish(); err == nil {
		err = ferr
	}
	return err
}

// loadReadList accepts a FASTQ/FASTA file (by extension, optionally
// gzip-compressed) or a plain one-read-per-line file, and returns the reads
// in their on-disk order (so interleaved pairs stay adjacent). A directory
// is refused.
func loadReadList(path string) ([]string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return nil, fmt.Errorf("-in %s is a directory, not a reads file", path)
	}
	f, err := fastx.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch fastx.BaseExt(path) {
	case ".fastq", ".fq":
		// Only the sequences are kept. A plain file's size bounds them; a
		// gzip stream's inflated size is unknown, so its arena grows.
		size := st.Size()
		if strings.HasSuffix(strings.ToLower(path), ".gz") {
			size = 0
		}
		return fastx.ReadFastqSeqs(f, size)
	case ".fasta", ".fa":
		recs, err := fastx.ReadFasta(f)
		if err != nil {
			return nil, err
		}
		return fastx.Seqs(recs), nil
	default:
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		var reads []string
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line != "" {
				reads = append(reads, line)
			}
		}
		return reads, nil
	}
}
