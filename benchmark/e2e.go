package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/quality"
)

// The inputs are generated at least setupReps times and until setupSeconds
// have passed (at most setupMaxReps times): one readsim run takes 0.02 to
// 0.15 s, so setup_s is the median of many.
const (
	setupReps    = 9
	setupMaxReps = 40
	setupSeconds = 1.0
)

// minGenomeFraction is the lowest genome fraction a correct run may reach.
// Broken assemblies fall far below it; the 6x error-free workload reaches
// 0.94 on some seeds.
const minGenomeFraction = 0.90

// session is one invocation of the harness: where the binaries and scratch
// files live, and the inputs every workload shares.
type session struct {
	root    string // repository root (holds cmd/ and internal/)
	bin     string // directory of the built readsim and ppa-assembler
	work    string // scratch directory, removed when the session closes
	buildS  float64
	seed    int64
	smoke   bool
	logf    func(format string, a ...any)
	asmMore []string // extra assembler flags (tests inject a bad one)

	self string // this binary, re-run with refloadArg as the reference load
	// slowdown is the latest reference-load measurement over refNominalS;
	// it stays fresh until another child runs.
	slowdown      float64
	slowdownFresh bool
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ppa-assembler", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root not found: no cmd/ppa-assembler above the working directory")
		}
		dir = parent
	}
}

// newSession builds the two binaries the workloads run and makes a fresh
// scratch directory, both under <root>/.bench_build.
func newSession(ctx context.Context, seed int64, smoke bool, logf func(string, ...any)) (*session, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	s := &session{root: root, bin: filepath.Join(build, "bin"), seed: seed, smoke: smoke, logf: logf}
	if err := os.MkdirAll(s.bin, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", s.bin+string(filepath.Separator),
		"./cmd/readsim", "./cmd/ppa-assembler")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	s.buildS = time.Since(start).Seconds()
	if s.self, err = os.Executable(); err != nil {
		return nil, err
	}
	if s.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *session) close() { os.RemoveAll(s.work) }

// childRun is one finished child process.
type childRun struct {
	rawWallS float64 // process start to exit
	cpuS     float64 // user + system
	stealS   float64 // CPU time the hypervisor withheld from this machine meanwhile
	rssBytes float64
}

// netWallS is the run's wall time net of hypervisor steal. On a shared virtual
// machine the hypervisor withholds the CPU in bursts (10 to 30% of capacity
// for minutes on the reference host), which moves raw wall time of one and
// the same run by up to 1.7x. The child's virtual CPUs were wanted for
// cpu+steal seconds and granted for cpu of them, so the wall time is scaled
// by the granted share. Where nothing is stolen this is the raw wall time.
func (c childRun) netWallS() float64 {
	if c.cpuS <= 0 {
		return c.rawWallS
	}
	return c.rawWallS * c.cpuS / (c.cpuS + c.stealS)
}

// stealSeconds reads the machine's cumulative steal time from /proc/stat
// (zero where there is none to read).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// runChild runs one binary to completion and measures it from process start
// to exit. A non-zero exit is an error carrying the tail of its stderr.
func (s *session) runChild(ctx context.Context, name string, args []string) (childRun, error) {
	var stderr bytes.Buffer
	path := filepath.Join(s.bin, name)
	if name == refloadArg {
		path, args = s.self, []string{refloadArg}
	}
	s.slowdownFresh = false
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Stderr = &stderr
	steal := stealSeconds()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	steal = stealSeconds() - steal
	if err != nil {
		tail := strings.TrimSpace(stderr.String())
		if len(tail) > 300 {
			tail = "…" + tail[len(tail)-300:]
		}
		return childRun{}, fmt.Errorf("%s: %w: %s", name, err, tail)
	}
	run := childRun{rawWallS: wall.Seconds(), stealS: steal}
	ps := cmd.ProcessState
	run.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		run.rssBytes = float64(ru.Maxrss) * 1024 // Linux reports KiB
	}
	return run, nil
}

// measureSlowdown runs the reference load once and returns how many times
// slower than nominal the host ran it. With reuse set, a measurement no
// other child has run since is returned as is.
func (s *session) measureSlowdown(ctx context.Context, reuse bool) (float64, error) {
	if reuse && s.slowdownFresh {
		return s.slowdown, nil
	}
	run, err := s.runChild(ctx, refloadArg, nil)
	if err != nil {
		return 0, err
	}
	s.slowdown, s.slowdownFresh = run.netWallS()/refNominalS, true
	s.logf("refload raw %.3f cpu %.3f steal %.3f", run.rawWallS, run.cpuS, run.stealS)
	return s.slowdown, nil
}

// bracket runs the reference load before and after fn and returns the two
// slowdowns, so fn's children can be set against the host's speed.
func (s *session) bracket(ctx context.Context, fn func()) (before, after float64, err error) {
	if before, err = s.measureSlowdown(ctx, true); err != nil {
		return 0, 0, err
	}
	fn()
	after, err = s.measureSlowdown(ctx, false)
	return before, after, err
}

// wlRun is the state of one workload within a session: its files, the
// samples of its timed runs, and its operation counts.
type wlRun struct {
	workload
	s   *session
	dir string

	ref, reads, contigs, scaffolds string // files in dir
	readCount                      int

	attempted, failed int
	failures          []string

	setupS              []float64 // one per successful readsim run
	netWallS, rssB      []float64 // one per successful assembler run; wall net of steal
	rawWallS, stealS    []float64
	cpuS                []float64
	slowdown            []float64 // the reference-load measurements around the assembler runs
	contigSHA, scafSHA  string    // of the first successful assembler run
	genomeFraction, n50 float64
	evalS               float64
}

func (s *session) newRun(w workload) (*wlRun, error) {
	dir := filepath.Join(s.work, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &wlRun{
		workload: w, s: s, dir: dir,
		ref:       filepath.Join(dir, "ref.fa"),
		reads:     filepath.Join(dir, "reads.fastq"),
		contigs:   filepath.Join(dir, "contigs.fa"),
		scaffolds: filepath.Join(dir, "scaffolds.fa"),
	}, nil
}

// op counts one operation; a non-nil err makes it a failed one.
func (r *wlRun) op(what string, err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	r.failures = append(r.failures, what+": "+err.Error())
	r.s.logf("%s: FAILED %s: %v", r.name, what, err)
	return false
}

// setup generates the reference and the FASTQ with the readsim child; every
// repetition must write the same bytes. With timed set it repeats as the
// setup constants say and records setup_s samples. A run this short is
// shorter than the steal counter's tick, so the granted share of CPU is
// taken over all repetitions together.
func (r *wlRun) setup(ctx context.Context, timed bool) {
	var first string
	var runs []childRun
	before, after, err := r.s.bracket(ctx, func() {
		start := time.Now()
		for i := 0; i == 0 || timed && i < setupMaxReps && (i < setupReps || time.Since(start).Seconds() < setupSeconds); i++ {
			run, err := r.s.runChild(ctx, "readsim", r.readsimArgs(r.s.seed, r.s.smoke, r.ref, r.reads))
			var sum string
			if err == nil {
				sum, err = fileSHA(r.reads)
			}
			if err == nil && first != "" && sum != first {
				err = errors.New("FASTQ differs from the first generation with the same seed")
			}
			if !r.op("readsim", err) {
				continue
			}
			first = sum
			runs = append(runs, run)
		}
	})
	if r.op("reference load", err) {
		slowdown := (before + after) / 2
		var all childRun
		for _, run := range runs {
			all.rawWallS += run.rawWallS
			all.cpuS += run.cpuS
			all.stealS += run.stealS
		}
		for _, run := range runs {
			r.setupS = append(r.setupS, run.rawWallS*all.netWallS()/all.rawWallS/slowdown)
		}
	}
	if n, err := countLines(r.reads); err == nil {
		r.readCount = n / 4
	}
}

// timedRun is one end-to-end assembler run as a fresh child process: FASTQ
// on disk in, FASTA on disk out. It contributes a sample only when it exits
// cleanly with the same output as the workload's earlier runs.
func (r *wlRun) timedRun(ctx context.Context) {
	os.Remove(r.contigs)
	os.Remove(r.scaffolds)
	var run childRun
	var err error
	before, after, refErr := r.s.bracket(ctx, func() {
		run, err = r.s.runChild(ctx, "ppa-assembler", r.asmArgs(r.reads, r.contigs, r.scaffolds, r.s.asmMore...))
	})
	var csum, ssum string
	if err == nil {
		csum, ssum, err = r.outputSHAs(r.contigs, r.scaffolds)
	}
	if err == nil && r.contigSHA != "" && (csum != r.contigSHA || ssum != r.scafSHA) {
		err = errors.New("output differs from an earlier run of the same workload")
	}
	if !r.op("ppa-assembler", err) {
		return
	}
	r.contigSHA, r.scafSHA = csum, ssum
	if !r.op("reference load", refErr) {
		return
	}
	r.netWallS = append(r.netWallS, run.netWallS())
	r.slowdown = append(r.slowdown, before, after)
	r.s.logf("%-16s wall %.3fs net of steal = raw %.3fs, steal %.3fs, cpu %.3fs; host slowdown before %.3f, after %.3f",
		r.name, run.netWallS(), run.rawWallS, run.stealS, run.cpuS, before, after)
	r.rssB = append(r.rssB, run.rssBytes)
	r.cpuS = append(r.cpuS, run.cpuS)
	r.rawWallS = append(r.rawWallS, run.rawWallS)
	r.stealS = append(r.stealS, run.stealS)
}

// outputSHAs hashes a run's FASTA outputs (scaffolds only when the workload
// writes them).
func (r *wlRun) outputSHAs(contigs, scaffolds string) (csum, ssum string, err error) {
	if csum, err = fileSHA(contigs); err != nil {
		return "", "", err
	}
	if r.scaffold {
		if ssum, err = fileSHA(scaffolds); err != nil {
			return "", "", err
		}
	}
	return csum, ssum, nil
}

// checkQuality scores the contigs (and scaffolds) of the last successful
// run against the generated reference: one operation.
func (r *wlRun) checkQuality() {
	if r.contigSHA == "" {
		return
	}
	start := time.Now()
	err := func() error {
		refs, err := readFasta(r.ref)
		if err != nil {
			return err
		}
		if len(refs) != 1 {
			return fmt.Errorf("%d reference records", len(refs))
		}
		ref := dna.ParseSeq(refs[0].Seq)
		recs, err := readFasta(r.contigs)
		if err != nil {
			return err
		}
		contigs := make([]dna.Seq, len(recs))
		for i, rec := range recs {
			contigs[i] = dna.ParseSeq(rec.Seq)
		}
		rep := quality.Evaluate(contigs, ref, quality.MinContigLen)
		r.genomeFraction, r.n50 = rep.GenomeFraction/100, float64(rep.N50)
		if rep.Misassemblies > 0 {
			return fmt.Errorf("%d misassemblies", rep.Misassemblies)
		}
		if r.genomeFraction < minGenomeFraction {
			return fmt.Errorf("genome fraction %.4f < %.2f", r.genomeFraction, minGenomeFraction)
		}
		if !r.scaffold {
			return nil
		}
		srecs, err := readFasta(r.scaffolds)
		if err != nil {
			return err
		}
		parts := make([]quality.ScaffoldParts, len(srecs))
		for i, rec := range srecs {
			parts[i] = quality.ParseScaffold(rec.Seq)
		}
		if sr := quality.EvaluateScaffolds(parts, ref, 0, 100); sr.Misjoins > 0 {
			return fmt.Errorf("%d scaffold misjoins", sr.Misjoins)
		}
		return nil
	}()
	r.evalS = time.Since(start).Seconds()
	r.op("quality", err)
}

// checkSameOutput verifies sameOutputAs: other is that workload's run in
// this session, or nil, in which case its flags are run once, untimed, on
// this workload's (identical) input.
func (r *wlRun) checkSameOutput(ctx context.Context, other *wlRun) {
	if r.sameOutputAs == "" || r.contigSHA == "" {
		return
	}
	what := "same output as " + r.sameOutputAs
	var csum, ssum string
	if other != nil {
		csum, ssum = other.contigSHA, other.scafSHA
	} else {
		w, _ := findWorkload(r.sameOutputAs)
		c, sc := filepath.Join(r.dir, "other-contigs.fa"), filepath.Join(r.dir, "other-scaffolds.fa")
		_, err := r.s.runChild(ctx, "ppa-assembler", w.asmArgs(r.reads, c, sc))
		if err == nil {
			csum, ssum, err = r.outputSHAs(c, sc)
		}
		if err != nil {
			r.op(what, err)
			return
		}
	}
	var err error
	if csum != r.contigSHA || ssum != r.scafSHA {
		err = errors.New("contigs or scaffolds differ")
	}
	r.op(what, err)
}

// wallS returns the timed runs' wall times, net of steal, over the median of
// the reference-load measurements taken around them. One slowdown for all
// of a workload's runs: a single reference load that a steal burst hits
// reads up to 1.4x too slow, and the median of four or more shrugs that off
// where the mean of a run's two neighbours does not (README.md has the
// spreads measured either way).
func (r *wlRun) wallS() []float64 {
	slowdown := median(r.slowdown)
	out := make([]float64, len(r.netWallS))
	for i, w := range r.netWallS {
		out[i] = w / slowdown
	}
	return out
}

// endToEndValues summarises the timed runs. ok is false when a metric has
// no sample, which means the harness cannot report the workload.
func (r *wlRun) endToEndValues() (vals map[string]float64, ok bool) {
	if len(r.setupS) == 0 || len(r.netWallS) == 0 || r.readCount == 0 || r.genomeFraction == 0 {
		return nil, false
	}
	wall := median(r.wallS())
	return map[string]float64{
		"setup_s":         median(r.setupS),
		"wall_s":          wall,
		"reads_per_s":     float64(r.readCount) / wall,
		"peak_rss_bytes":  median(r.rssB),
		"genome_fraction": r.genomeFraction,
	}, true
}

func readFasta(path string) ([]fastx.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fastx.ReadFasta(f)
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func countLines(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return bytes.Count(data, []byte{'\n'}), nil
}
