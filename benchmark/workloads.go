package main

import (
	"strconv"

	"ppaassembler/internal/core"
)

// workers is the logical Pregel worker count of every workload, for the
// child (-workers) and the in-process layer run alike.
const workers = 4

// smokeLen is the genome length -smoke substitutes for every workload.
const smokeLen = 20_000

// workload is one set of inputs plus the way the assembler is used on them.
// The same configuration is spelled twice: as ppa-assembler flags for the
// end-to-end child runs and as core.Options edits for the in-process layer
// run. The layer run's output is compared byte for byte with the child's,
// so the two spellings cannot drift apart unnoticed.
type workload struct {
	name string
	// why is the one-line reason this workload exists (copied into
	// BENCHMARK.json and README.md).
	why string
	// genomeLen and repeats are readsim's -len and -repeats; readsim holds
	// the remaining generator flags.
	genomeLen, repeats int
	readsim            []string
	// asm holds the ppa-assembler flags besides -in/-out/-scaffold/-workers.
	asm []string
	// scaffold adds `-scaffold <file>` (the input is then paired).
	scaffold bool
	// opts applies the asm flags to the layer run's options.
	opts func(*core.Options)
	// sameOutputAs names the workload whose contigs and scaffolds this one
	// must reproduce byte for byte.
	sameOutputAs string
}

var peReadsim = []string{"-repeatlen", "300", "-paired", "-insert", "700", "-insertsd", "60", "-coverage", "25"}

// allWorkloads is the closed set of benchmark workloads. Each stresses a
// different layer; README.md has the measured shares.
var allWorkloads = []workload{
	{
		name:      "pe120k",
		why:       "canonical paired-end run with scaffolding: DBG build (MapReduce sort, Convert, unsized appends) is over half of wall, labeling a quarter, scaffolding a tenth",
		genomeLen: 120_000, repeats: 7,
		readsim:  peReadsim,
		scaffold: true,
		opts:     func(*core.Options) {},
	},
	{
		name:      "chains150k-sv",
		why:       "long error-free unambiguous paths under S-V labeling: 13M engine messages, superstep compute+shuffle about half of wall; the Pregel message path shows here, the sort fix mostly does not",
		genomeLen: 150_000, repeats: 0,
		readsim: []string{"-coverage", "6", "-sub", "0", "-nrate", "0"},
		asm:     []string{"-theta", "0", "-labeler", "sv"},
		opts: func(o *core.Options) {
			o.Theta = 0
			o.Labeler = core.LabelerSV
		},
	},
	{
		name:      "noisy90k",
		why:       "50x reads with 1% errors: 0.75M distinct (k+1)-mers counted and 88% dropped by theta, so k-mer counting and FASTQ parsing are three quarters of wall and the graph stages are small",
		genomeLen: 90_000, repeats: 5,
		readsim: []string{"-repeatlen", "300", "-coverage", "50", "-sub", "0.01"},
		asm:     []string{"-theta", "2"},
		opts:    func(o *core.Options) { o.Theta = 2 },
	},
	{
		name:      "pe120k-par-ckpt",
		why:       "pe120k's input with goroutine-parallel delivery and in-memory checkpoint writes every 4 supersteps: the engine used differently; output must be byte-identical to pe120k",
		genomeLen: 120_000, repeats: 7,
		readsim:  peReadsim,
		asm:      []string{"-parallel", "-ckpt-every", "4"},
		scaffold: true,
		opts: func(o *core.Options) {
			o.Parallel = true
			o.CheckpointEvery = 4
		},
		sameOutputAs: "pe120k",
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// readsimArgs renders the generator command line. The seed is the only
// thing that varies between invocations of one workload.
func (w workload) readsimArgs(seed int64, smoke bool, ref, out string) []string {
	length, repeats := w.genomeLen, w.repeats
	if smoke {
		length = smokeLen
		repeats = min(repeats, 2)
	}
	args := []string{"-len", strconv.Itoa(length), "-repeats", strconv.Itoa(repeats)}
	args = append(args, w.readsim...)
	return append(args, "-seed", strconv.FormatInt(seed, 10), "-ref", ref, "-out", out)
}

// asmArgs renders the assembler command line; extra is appended verbatim.
func (w workload) asmArgs(in, contigs, scaffolds string, extra ...string) []string {
	args := []string{"-in", in, "-out", contigs, "-workers", strconv.Itoa(workers)}
	if w.scaffold {
		args = append(args, "-scaffold", scaffolds)
	}
	args = append(args, w.asm...)
	return append(args, extra...)
}
