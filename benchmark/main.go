// Command benchmark is the repository benchmark: four assembly workloads
// timed end to end through the real readsim and ppa-assembler binaries,
// plus an in-process layer run of the same pipelines. README.md documents
// the workloads, the metrics and how they interact.
//
// Three ways to run it:
//
//	bash benchmark/run.sh --workload pe120k --seed 1 --seconds 20 --trace 0
//	    one workload, one result as a JSON object on the last line of
//	    stdout (the contract of BENCHMARK.json; --trace 1 gives the
//	    per-layer metrics instead of the end-to-end ones)
//	go run -C benchmark . -seed 1 -out result.json
//	    every workload, round-robin, end-to-end and per-layer, with
//	    provenance and raw samples written to result.json
//	go run -C benchmark . -compare a.json b.json
//	    compare two result files metric by metric against the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// minReps is the fewest timed child runs a single-workload invocation
// reports a median of, however short --seconds is.
const minReps = 3

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == refloadArg {
		refload()
		return 0
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   string
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 20, "with -trace: keep starting timed runs while they are expected to end within this long")
		trace   = fs.Int("trace", -1, "single-workload mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
		reps    = fs.Int("reps", 5, "without -trace: timed child runs per workload (at least 3)")
		out     = fs.String("out", "", "without -trace: write the full result file here")
		smoke   = fs.Bool("smoke", false, "20 kbp genomes and one run each: checks the harness, measures nothing")
		compare = fs.Bool("compare", false, "compare the two result files given as arguments")
	)
	fs.StringVar(&names, "workload", "", "comma-separated workloads (default: all)")
	fs.StringVar(&names, "workloads", "", "alias of -workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		beyond, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if beyond > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	selected := allWorkloads
	if names != "" {
		selected = nil
		for _, name := range strings.Split(names, ",") {
			w, ok := findWorkload(name)
			if !ok {
				return fail(fmt.Errorf("unknown workload %q", name))
			}
			selected = append(selected, w)
		}
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }

	if *trace >= 0 {
		if *trace > 1 || len(selected) != 1 {
			return fail(errors.New("-trace takes 0 or 1 and exactly one -workload"))
		}
		s, err := newSession(ctx, *seed, *smoke, logf)
		if err != nil {
			return fail(err)
		}
		defer s.close()
		res, err := runSingle(ctx, s, selected[0], *trace == 1, *seconds)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	if *smoke {
		*reps = 1
	} else if *reps < minReps {
		return fail(fmt.Errorf("-reps must be at least %d", minReps))
	}
	s, err := newSession(ctx, *seed, *smoke, logf)
	if err != nil {
		return fail(err)
	}
	defer s.close()
	rep, err := runReport(ctx, s, selected, *reps)
	if rep != nil {
		rep.print(stdout)
		if *out != "" {
			if werr := rep.write(*out); werr != nil {
				return fail(werr)
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// contractResult is the JSON object a single-workload invocation prints.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// budget decides whether another repetition starts: always below the
// minimum, afterwards only while one more of average length would still end
// within the requested seconds.
type budget struct {
	start   time.Time
	seconds float64
	min     int
	done    int
}

func (b *budget) next() bool {
	elapsed := time.Since(b.start).Seconds()
	ok := b.done < b.min || elapsed+elapsed/float64(b.done) <= b.seconds
	b.done++
	return ok
}

// runSingle measures one workload for about `seconds` and returns the
// end-to-end metrics, or with layers set the per-layer ones. An error means
// the harness could not produce every metric.
func runSingle(ctx context.Context, s *session, w workload, layers bool, seconds float64) (*contractResult, error) {
	r, err := s.newRun(w)
	if err != nil {
		return nil, err
	}
	least := minReps
	if s.smoke {
		least = 1
	}
	var vals map[string]float64
	var defs []metricDef
	var ok bool
	if !layers {
		defs = endToEnd
		r.setup(ctx, true)
		for b := (budget{start: time.Now(), seconds: seconds, min: least}); b.next() && ctx.Err() == nil; {
			r.timedRun(ctx)
		}
		r.checkQuality()
		r.checkSameOutput(ctx, nil)
		vals, ok = r.endToEndValues()
	} else {
		defs = perLayer
		r.setup(ctx, false)
		r.timedRun(ctx) // proc.cpu_s, and the output the layer runs must reproduce
		r.checkQuality()
		var untraced, traced []*layerSample
		for b := (budget{start: time.Now(), seconds: seconds, min: 1}); b.next() && ctx.Err() == nil; {
			u, t := r.layerPair()
			if u != nil && t != nil {
				untraced, traced = append(untraced, u), append(traced, t)
			}
		}
		vals, ok = r.layerValues(untraced, traced)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%s: no complete result: %s", w.name, strings.Join(r.failures, "; "))
	}
	res := &contractResult{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		s.logf("%-26s %16.6g %s", d.Name, vals[d.Name], d.Unit)
	}
	s.logf("%s seed %d: %d operations, %d failed; build %.2fs", w.name, s.seed, r.attempted, r.failed, s.buildS)
	return res, nil
}
