package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// report is the result file of a full run: provenance, then per workload
// every end-to-end and per-layer metric with its raw samples.
type report struct {
	Schema       string           `json:"schema"`
	Host         hostInfo         `json:"host"`
	Seed         int64            `json:"seed"`
	Reps         int              `json:"reps"`
	Smoke        bool             `json:"smoke"`
	Workloads    []workloadReport `json:"workloads"`
	OpsAttempted int              `json:"ops_attempted"`
	OpsFailed    int              `json:"ops_failed"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	GitCommit  string  `json:"git_commit"`
	BuildS     float64 `json:"build_s"`
}

type workloadReport struct {
	Name          string                  `json:"name"`
	Why           string                  `json:"why"`
	ReadsimArgs   []string                `json:"readsim_args"`
	AssemblerArgs []string                `json:"assembler_args"`
	Reads         int                     `json:"reads"`
	OpsAttempted  int                     `json:"ops_attempted"`
	OpsFailed     int                     `json:"ops_failed"`
	Failures      []string                `json:"failures"`
	ContigsSHA256 string                  `json:"contigs_sha256"`
	EndToEnd      map[string]metricReport `json:"end_to_end"`
	PerLayer      map[string]metricReport `json:"per_layer"`
	// The untraced and traced in-process walls side by side, so tracing
	// overhead is visible without subtracting.
	InprocUntracedS float64 `json:"inproc_untraced_wall_s"`
	InprocTracedS   float64 `json:"inproc_traced_wall_s"`
}

type metricReport struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   *float64  `json:"bound,omitempty"`
	Q1      *float64  `json:"q1,omitempty"`
	Q3      *float64  `json:"q3,omitempty"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func collectHost(s *session) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", GitCommit: "unknown", BuildS: s.buildS,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository has no commit to record.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = s.root
	if b, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(b))
	}
	return h
}

// runReport runs every selected workload: inputs first, then the timed
// child runs round-robin (A B C D A B C D …, so host drift spreads over all
// of them), then the checks and one layer pair each. The error is non-nil
// when some workload lacks a metric; the report then still holds the rest.
func runReport(ctx context.Context, s *session, selected []workload, reps int) (*report, error) {
	runs := make([]*wlRun, len(selected))
	byName := map[string]*wlRun{}
	for i, w := range selected {
		r, err := s.newRun(w)
		if err != nil {
			return nil, err
		}
		runs[i], byName[w.name] = r, r
		r.setup(ctx, true)
	}
	for range reps {
		for _, r := range runs {
			r.timedRun(ctx)
		}
	}
	out := &report{Schema: "ppa-benchmark/1", Host: collectHost(s), Seed: s.seed, Reps: reps, Smoke: s.smoke}
	var incomplete []string
	for _, r := range runs {
		r.checkQuality()
		r.checkSameOutput(ctx, byName[r.sameOutputAs])
		wr := workloadReport{
			Name: r.name, Why: r.why, Reads: r.readCount, ContigsSHA256: r.contigSHA,
			ReadsimArgs:   r.readsimArgs(s.seed, s.smoke, "ref.fa", "reads.fastq"),
			AssemblerArgs: r.asmArgs("reads.fastq", "contigs.fa", "scaffolds.fa"),
		}
		e2e, ok1 := r.endToEndValues()
		var layers map[string]float64
		ok2 := false
		if u, t := r.layerPair(); u != nil && t != nil {
			layers, ok2 = r.layerValues([]*layerSample{u}, []*layerSample{t})
			wr.InprocUntracedS, wr.InprocTracedS = u.wallS, t.wallS
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !ok1 || !ok2 {
			incomplete = append(incomplete, r.name)
		}
		samples := map[string][]float64{
			"setup_s": r.setupS, "wall_s": r.wallS(), "peak_rss_bytes": r.rssB,
			"proc.cpu_s": r.cpuS, "proc.wall_raw_s": r.rawWallS, "proc.steal_s": r.stealS,
			"proc.host_slowdown": r.slowdown,
		}
		wr.EndToEnd = renderMetrics(endToEnd, e2e, samples, true)
		wr.PerLayer = renderMetrics(perLayer, layers, samples, false)
		wr.OpsAttempted, wr.OpsFailed, wr.Failures = r.attempted, r.failed, r.failures
		out.OpsAttempted += r.attempted
		out.OpsFailed += r.failed
		out.Workloads = append(out.Workloads, wr)
	}
	if len(incomplete) > 0 {
		return out, fmt.Errorf("no complete result for %s", strings.Join(incomplete, ", "))
	}
	return out, nil
}

func renderMetrics(defs []metricDef, vals map[string]float64, samples map[string][]float64, bounded bool) map[string]metricReport {
	out := map[string]metricReport{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		m := metricReport{Value: v, Unit: d.Unit, Better: d.Better}
		if bounded {
			bound := d.Bound
			m.Bound = &bound
		}
		if xs := samples[d.Name]; len(xs) > 0 {
			q1, _, q3 := quartiles(xs)
			m.Q1, m.Q3, m.N, m.Samples = &q1, &q3, len(xs), xs
		}
		out[d.Name] = m
	}
	return out
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print lists every metric of every workload by name with its unit.
func (rep *report) print(w io.Writer) {
	h := rep.Host
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d, %s, kernel %s, commit %s, build %.2fs; seed %d, %d reps\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.GitCommit, h.BuildS, rep.Seed, rep.Reps)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s (%d reads; %d operations, %d failed)\n", wr.Name, wr.Reads, wr.OpsAttempted, wr.OpsFailed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "   FAILED %s\n", f)
		}
		for _, group := range []struct {
			defs []metricDef
			vals map[string]metricReport
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, d := range group.defs {
				m, ok := group.vals[d.Name]
				if !ok {
					continue
				}
				line := fmt.Sprintf("   %-26s %16.6g %-8s", d.Name, m.Value, m.Unit)
				if m.N > 0 {
					line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", *m.Q1, *m.Q3, m.N)
				}
				if m.Bound != nil {
					line += fmt.Sprintf(" bound %.2f", *m.Bound)
				}
				fmt.Fprintln(w, strings.TrimRight(line, " "))
			}
		}
	}
	fmt.Fprintf(w, "\nops_attempted %d, ops_failed %d, claim: null\n", rep.OpsAttempted, rep.OpsFailed)
}

// compareFiles prints, per workload, both files' end-to-end values with the
// relative difference and the bound, then the exact-repeat counts apart from
// the timings. It returns how many values lie beyond their bound or fail to
// repeat.
func compareFiles(w io.Writer, pathA, pathB string) (beyond int, err error) {
	load := func(path string) (*report, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(b, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rep, nil
	}
	a, err := load(pathA)
	if err != nil {
		return 0, err
	}
	b, err := load(pathB)
	if err != nil {
		return 0, err
	}
	other := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		other[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			fmt.Fprintf(w, "\n== %s: only in %s\n", wa.Name, pathA)
			continue
		}
		fmt.Fprintf(w, "\n== %s\n   %-22s %14s %14s %9s %6s\n", wa.Name, "end to end", "a", "b", "b vs a", "bound")
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if exactRepeat[d.Name] {
				continue
			}
			// Positive means b is worse than a.
			rel := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				rel = -rel
			}
			mark := ""
			if math.Abs(rel) > d.Bound {
				mark = "  BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(w, "   %-22s %14.6g %14.6g %+8.1f%% %6.2f%s\n", d.Name, ma.Value, mb.Value, 100*rel, d.Bound, mark)
		}
		fmt.Fprintf(w, "   %-22s %14s %14s\n", "exact repeats", "a", "b")
		for _, group := range []struct {
			defs []metricDef
			a, b map[string]metricReport
		}{{endToEnd, wa.EndToEnd, wb.EndToEnd}, {perLayer, wa.PerLayer, wb.PerLayer}} {
			for _, d := range group.defs {
				if !exactRepeat[d.Name] {
					continue
				}
				va, vb := group.a[d.Name].Value, group.b[d.Name].Value
				mark := "  same"
				if va != vb {
					// Allocation totals repeat to four digits, not exactly.
					if strings.HasPrefix(d.Name, "runtime.") && math.Abs(vb-va) <= 5e-4*math.Abs(va) {
						mark = "  same to 4 digits"
					} else {
						mark = "  DIFFERS"
						beyond++
					}
				}
				fmt.Fprintf(w, "   %-22s %14.10g %14.10g%s\n", d.Name, va, vb, mark)
			}
		}
	}
	fmt.Fprintf(w, "\n%d values beyond their bound or not repeating\n", beyond)
	return beyond, nil
}
