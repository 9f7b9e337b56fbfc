package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/workflow"
)

// The layer run repeats a workload's pipeline inside this process, the way
// cmd/ppa-assembler composes it, with the benchmark's own timers around the
// calls into each layer's public functions. Engine phases cannot be timed
// from outside an op, so a second, traced run hands the pipeline a
// telemetry.Recorder and sums the spans the program already emits.

// timedOp times one workflow op from outside; Info is the wrapped op's.
type timedOp struct {
	workflow.Op[core.State]
	wall *float64
}

func (t timedOp) Run(env *workflow.Env, st *core.State) error {
	start := time.Now()
	err := t.Op.Run(env, st)
	*t.wall += time.Since(start).Seconds()
	return err
}

// runtimeSamples are the allocator and collector totals read around a run.
var runtimeSamples = []struct{ metric, name string }{
	{"/gc/heap/allocs:bytes", "runtime.alloc_bytes"},
	{"/gc/heap/allocs:objects", "runtime.mallocs"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles"},
	{"/cpu/classes/gc/total:cpu-seconds", "runtime.gc_cpu_s"},
}

func readRuntime() []float64 {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.metric
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// layerSample is one in-process run of a workload's pipeline.
type layerSample struct {
	wallS   float64            // parse through FASTA written
	values  map[string]float64 // timers and counts, by metric name
	events  []telemetry.Event  // traced runs only
	contigs string             // SHA-256 of the FASTA files written
	scafs   string
}

// layerRun runs the workload's pipeline once in this process on the files
// setup generated. tracer is nil for the untraced run.
func (r *wlRun) layerRun(tracer *telemetry.Recorder) (*layerSample, error) {
	v := map[string]float64{}
	opt := core.DefaultOptions(workers)
	r.opts(&opt)
	if tracer != nil {
		opt.Tracer = tracer
	}

	runtime.GC()
	before := readRuntime()
	start := time.Now()

	// fastx: parse the FASTQ.
	t := time.Now()
	st, err := os.Stat(r.reads)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(r.reads)
	if err != nil {
		return nil, err
	}
	recs, err := fastx.ReadFastq(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	reads := fastx.Seqs(recs)
	recs = nil
	v["fastx.parse_s"] = time.Since(t).Seconds()
	v["fastx.bytes_in"] = float64(st.Size())

	var pairs []scaffold.Pair
	if r.scaffold {
		if pairs, err = scaffold.PairUp(reads); err != nil {
			return nil, err
		}
	}

	// core: the canned plan, one timer per op. A name's second occurrence
	// (the second labeling and merging round) gets the suffix 2.
	canned, err := core.AssemblePlan(opt)
	if err != nil {
		return nil, err
	}
	plan := workflow.NewPlan[core.State](core.ArtReads)
	seen := map[string]bool{}
	var opSum float64
	timers := map[string]*float64{}
	for _, op := range canned.Ops() {
		name := op.Info().Name
		if seen[name] {
			name += "2"
		}
		seen[name] = true
		timers["core."+name+"_s"] = new(float64)
		plan.Then(timedOp{op, timers["core."+name+"_s"]})
	}
	env := opt.Env(pregel.NewSimClock(opt.Cost))
	state := &core.State{Reads: pregel.ShardSlice(reads, workers)}
	t = time.Now()
	if err := plan.Run(env, state); err != nil {
		return nil, err
	}
	planWall := time.Since(t).Seconds()
	m := &state.Metrics
	if len(m.MergeContigs) == 0 {
		return nil, errors.New("plan produced no contig set")
	}
	contigs := m.MergeContigs[len(m.MergeContigs)-1]

	// scaffold: a second plan on the first one's clock and checkpoint
	// store, as core.ScaffoldContigs runs it.
	var sstate *core.State
	if r.scaffold {
		timers["scaffold.op_s"] = new(float64)
		env2 := opt.Env(env.Clock)
		env2.Checkpointer = env.Checkpointer
		plan2 := workflow.NewPlan[core.State](core.ArtContigs, core.ArtPairs).
			Then(timedOp{core.ScaffoldOp{Lib: scaffold.Options{MinSupport: 3, MinContigLen: 500}}, timers["scaffold.op_s"]})
		sstate = &core.State{Contigs: [][]core.ContigRec{contigs}, Pairs: pairs}
		t = time.Now()
		if err := plan2.Run(env2, sstate); err != nil {
			return nil, err
		}
		planWall += time.Since(t).Seconds()
		v["scaffold.links_kept"] = float64(sstate.Scaffold.LinksKept)
	}
	for name, wall := range timers {
		v[name] = *wall
		opSum += *wall
	}
	v["workflow.overhead_s"] = planWall - opSum

	// fastx: write the FASTA files exactly as the CLI names the records.
	t = time.Now()
	out := make([]fastx.Record, len(contigs))
	for i, c := range contigs {
		out[i] = fastx.Record{
			Name: fmt.Sprintf("contig_%d length=%d cov=%d", i+1, c.Len(), c.Node.Cov),
			Seq:  c.Node.Seq.String(),
		}
	}
	cpath := filepath.Join(r.dir, "layer-contigs.fa")
	spath := filepath.Join(r.dir, "layer-scaffolds.fa")
	if err := writeFasta(cpath, out); err != nil {
		return nil, err
	}
	if r.scaffold {
		if err := writeFasta(spath, scaffold.Records(sstate.ScaffoldContigs, sstate.Scaffold.Scaffolds)); err != nil {
			return nil, err
		}
	}
	v["fastx.write_s"] = time.Since(t).Seconds()

	s := &layerSample{wallS: time.Since(start).Seconds(), values: v}
	after := readRuntime()
	for i, rs := range runtimeSamples {
		v[rs.name] = after[i] - before[i]
	}

	// Counts the public results already carry.
	v["dbg.k1_distinct"] = float64(m.K1Distinct)
	v["dbg.k1_kept"] = float64(m.K1Kept)
	v["dbg.kmer_vertices"] = float64(m.KmerVertices)
	for _, ls := range m.Labels {
		v["ppa.label_supersteps"] += float64(ls.Supersteps)
		v["ppa.label_msgs"] += float64(ls.Messages)
	}
	clock := env.Clock
	v["pregel.msgs_local"] = float64(clock.LocalMessages())
	v["pregel.msgs_remote"] = float64(clock.RemoteMessages())
	v["pregel.checkpoint.saves"] = float64(clock.CheckpointSaves())
	v["pregel.checkpoint.bytes"] = float64(clock.CheckpointBytesWritten())
	v["pregel.sim_s"] = clock.Seconds()
	v["pregel.sim_over_wall"] = clock.Seconds() / s.wallS

	if tracer != nil {
		s.events = tracer.Events()
	}
	if s.contigs, s.scafs, err = r.outputSHAs(cpath, spath); err != nil {
		return nil, err
	}
	return s, nil
}

func writeFasta(path string, recs []fastx.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fastx.WriteFasta(f, recs, 70); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics maps "category.name" of a span the program emits to the
// per-layer metric holding the sum of its durations and, where one exists,
// the metric holding how many there were.
var spanMetrics = map[string]struct{ sum, count string }{
	"mr.mr":                      {"", "pregel.mr.jobs"},
	"mr.map":                     {"pregel.mr.map_s", ""},
	"mr.reduce":                  {"pregel.mr.reduce_s", ""},
	"pregel.convert":             {"pregel.convert_s", ""},
	"pregel.job":                 {"", "pregel.jobs"},
	"pregel.superstep":           {"", "pregel.supersteps"},
	"phase.compute":              {"pregel.phase.compute_s", ""},
	"phase.shuffle":              {"pregel.phase.shuffle_s", ""},
	"phase.barrier":              {"pregel.phase.barrier_s", ""},
	"checkpoint.checkpoint.save": {"pregel.checkpoint.save_s", ""},
}

// sumSpans folds a traced run's events into per-layer metrics. Begin and
// End events pair up per span name, innermost first; a span name that never
// occurs leaves its metric at zero.
func sumSpans(events []telemetry.Event, into map[string]float64) {
	open := map[string][]int64{}
	for _, e := range events {
		key := e.Cat + "." + e.Name
		sm, ok := spanMetrics[key]
		if !ok {
			continue
		}
		switch e.Kind {
		case telemetry.KindBegin:
			open[key] = append(open[key], e.WallNs)
		case telemetry.KindEnd:
			stack := open[key]
			if len(stack) == 0 {
				continue
			}
			begin := stack[len(stack)-1]
			open[key] = stack[:len(stack)-1]
			if sm.sum != "" {
				into[sm.sum] += float64(e.WallNs-begin) / 1e9
			}
			if sm.count != "" {
				into[sm.count]++
			}
		}
	}
	into["telemetry.events"] = float64(len(events))
}

// layerPair is one untraced run followed by one traced run: operations that
// must both finish and both reproduce the child's output.
func (r *wlRun) layerPair() (untraced, traced *layerSample) {
	check := func(what string, tracer *telemetry.Recorder) *layerSample {
		s, err := r.layerRun(tracer)
		if err == nil && r.contigSHA != "" && (s.contigs != r.contigSHA || s.scafs != r.scafSHA) {
			err = errors.New("output differs from the ppa-assembler child's")
		}
		if !r.op(what, err) {
			return nil
		}
		return s
	}
	untraced = check("layer run", nil)
	traced = check("traced layer run", telemetry.NewRecorder())
	return untraced, traced
}

// layerValues renders the per-layer metrics from the pairs run so far:
// medians over the pairs, span sums from the traced runs, every name in
// perLayer present.
func (r *wlRun) layerValues(untraced, traced []*layerSample) (map[string]float64, bool) {
	if len(untraced) == 0 || len(traced) == 0 || len(r.cpuS) == 0 {
		return nil, false
	}
	collect := map[string][]float64{}
	add := func(name string, x float64) { collect[name] = append(collect[name], x) }
	for _, s := range untraced {
		for name, x := range s.values {
			add(name, x)
		}
		add("inproc.wall_s", s.wallS)
	}
	for _, s := range traced {
		spans := map[string]float64{}
		sumSpans(s.events, spans)
		for name, x := range spans {
			add(name, x)
		}
		add("inproc.traced_wall_s", s.wallS)
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		if xs := collect[d.Name]; len(xs) > 0 {
			out[d.Name] = median(xs)
		} else {
			out[d.Name] = 0
		}
	}
	out["telemetry.overhead_s"] = out["inproc.traced_wall_s"] - out["inproc.wall_s"]
	out["proc.cpu_s"] = median(r.cpuS)
	out["proc.wall_raw_s"] = median(r.rawWallS)
	out["proc.steal_s"] = median(r.stealS)
	out["proc.host_slowdown"] = median(r.slowdown)
	out["quality.eval_s"] = r.evalS
	out["quality.n50_bp"] = r.n50
	return out, true
}
