package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; main_test.go fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of readsim → ppa-assembler sees, measured
// on child processes with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"peak_rss_bytes", "bytes", "lower", 0.20},
	{"genome_fraction", "fraction", "higher", 0.05},
}

// perLayer are the layer run's metrics, grouped by the module they belong
// to. A metric whose layer a workload does not use reads 0.
var perLayer = []metricDef{
	{Name: "inproc.wall_s", Unit: "s", Better: "lower"},
	{Name: "inproc.traced_wall_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.wall_raw_s", Unit: "s", Better: "lower"},
	{Name: "proc.steal_s", Unit: "s", Better: "lower"},
	{Name: "proc.host_slowdown", Unit: "ratio", Better: "lower"},

	{Name: "fastx.parse_s", Unit: "s", Better: "lower"},
	{Name: "fastx.bytes_in", Unit: "bytes", Better: "lower"},
	{Name: "fastx.write_s", Unit: "s", Better: "lower"},

	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.label_s", Unit: "s", Better: "lower"},
	{Name: "core.merge_s", Unit: "s", Better: "lower"},
	{Name: "core.bubble_s", Unit: "s", Better: "lower"},
	{Name: "core.rebuild_s", Unit: "s", Better: "lower"},
	{Name: "core.link_s", Unit: "s", Better: "lower"},
	{Name: "core.tiptrim_s", Unit: "s", Better: "lower"},
	{Name: "core.label2_s", Unit: "s", Better: "lower"},
	{Name: "core.merge2_s", Unit: "s", Better: "lower"},
	{Name: "scaffold.op_s", Unit: "s", Better: "lower"},
	{Name: "scaffold.links_kept", Unit: "count", Better: "higher"},
	{Name: "workflow.overhead_s", Unit: "s", Better: "lower"},

	{Name: "quality.eval_s", Unit: "s", Better: "lower"},
	{Name: "quality.n50_bp", Unit: "bp", Better: "higher"},

	{Name: "dbg.k1_distinct", Unit: "count", Better: "lower"},
	{Name: "dbg.k1_kept", Unit: "count", Better: "lower"},
	{Name: "dbg.kmer_vertices", Unit: "count", Better: "lower"},
	{Name: "ppa.label_supersteps", Unit: "count", Better: "lower"},
	{Name: "ppa.label_msgs", Unit: "count", Better: "lower"},
	{Name: "pregel.msgs_local", Unit: "count", Better: "lower"},
	{Name: "pregel.msgs_remote", Unit: "count", Better: "lower"},
	{Name: "pregel.checkpoint.saves", Unit: "count", Better: "lower"},
	{Name: "pregel.checkpoint.bytes", Unit: "bytes", Better: "lower"},
	{Name: "pregel.sim_s", Unit: "s", Better: "lower"},
	{Name: "pregel.sim_over_wall", Unit: "ratio", Better: "lower"},

	{Name: "runtime.alloc_bytes", Unit: "bytes", Better: "lower"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},

	// From the traced run: sums over spans the program already emits.
	{Name: "pregel.mr.map_s", Unit: "s", Better: "lower"},
	{Name: "pregel.mr.reduce_s", Unit: "s", Better: "lower"},
	{Name: "pregel.mr.jobs", Unit: "count", Better: "lower"},
	{Name: "pregel.convert_s", Unit: "s", Better: "lower"},
	{Name: "pregel.phase.compute_s", Unit: "s", Better: "lower"},
	{Name: "pregel.phase.shuffle_s", Unit: "s", Better: "lower"},
	{Name: "pregel.phase.barrier_s", Unit: "s", Better: "lower"},
	{Name: "pregel.supersteps", Unit: "count", Better: "lower"},
	{Name: "pregel.jobs", Unit: "count", Better: "lower"},
	{Name: "pregel.checkpoint.save_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.events", Unit: "count", Better: "lower"},
	{Name: "telemetry.overhead_s", Unit: "s", Better: "lower"},
}

// exactRepeat are the metrics -compare reports separately from timings:
// they are functions of the input alone and must repeat exactly (or, for
// allocation totals, to four digits) between two sets of runs of one commit.
var exactRepeat = map[string]bool{
	"genome_fraction": true, "quality.n50_bp": true,
	"dbg.k1_distinct": true, "dbg.k1_kept": true, "dbg.kmer_vertices": true,
	"ppa.label_supersteps": true, "ppa.label_msgs": true,
	"pregel.msgs_local": true, "pregel.msgs_remote": true,
	"pregel.supersteps": true, "pregel.jobs": true, "pregel.mr.jobs": true,
	"pregel.checkpoint.saves": true, "pregel.checkpoint.bytes": true,
	"scaffold.links_kept": true, "fastx.bytes_in": true,
	"runtime.alloc_bytes": true, "runtime.mallocs": true,
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics (NaN when empty).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
