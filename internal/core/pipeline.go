package core

import (
	"fmt"
	"time"

	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/workflow"
)

// Options is the one parameter set of an assembly run. The defaults mirror
// the paper's experimental settings (§V) scaled to this reproduction:
// edit-distance threshold 5 for bubble filtering and length threshold 80 for
// tip removal.
//
// The assembly fields are the defaults of the op catalog's spec parameters
// (OpRegistry): Spec renders the paper's canned workflow over them, and a
// user spec inherits every parameter it leaves unset. The embedded Config is
// the engine configuration every job runs under (Env). The ppa-assembler
// flags bind straight to these fields.
type Options struct {
	// K is the k-mer length (odd, <= 31; the paper uses 31).
	K int
	// Theta drops (k+1)-mers with coverage <= Theta during DBG
	// construction.
	Theta uint32
	// TipLen is the tip-length threshold (paper: 80).
	TipLen int
	// BubbleEditDist prunes a bubble arm when its edit distance to a
	// higher-coverage arm is below this threshold (paper: 5).
	BubbleEditDist int
	// Labeler chooses the contig-labeling algorithm for both rounds.
	Labeler Labeler
	// Rounds of labeling+merging: 1 = stop after the first merge (no error
	// correction), 2 = the paper's workflow ①②③④⑤⑥②③. DefaultOptions
	// sets 2; Assemble refuses any other value.
	Rounds int

	// Optional extension operations (§V names both as user
	// customizations; zero disables them):

	// BubbleMinCov additionally prunes bubble arms with coverage below
	// this threshold whenever a stronger parallel arm exists.
	BubbleMinCov uint32
	// BranchSplitRatio enables Spaler-style branch splitting before tip
	// removal: at ambiguous vertices, edges out-covered ratio-to-one by a
	// parallel edge are cut (must be >= 2 when set).
	BranchSplitRatio uint32

	// MinLen omits contigs shorter than this from the FASTA (the fasta
	// op's default; 0 keeps everything).
	MinLen int
	// Scaffold is the paired-end library of the scaffold op (stage ⑦).
	Scaffold scaffold.Options

	// Config is the engine configuration of every job of the pipeline
	// (workers, schedule, checkpointing, faults, telemetry). The schedule
	// (Parallel) changes wall time but never the assembler's output; the
	// worker count also moves the local/remote traffic split and contig
	// names, but never the contigs' sequences. MessageBytes is not read:
	// each graph charges its own message type's wire size (MsgWireBytes on
	// the segment graph).
	pregel.Config
}

// DefaultOptions returns the paper-inspired defaults with the given worker
// count, on the parallel schedule.
func DefaultOptions(workers int) Options {
	return Options{
		K:              21,
		Theta:          1,
		TipLen:         80,
		BubbleEditDist: 5,
		Labeler:        LabelerLR,
		Rounds:         2,
		Scaffold:       scaffold.Options{MinSupport: 3, MinContigLen: 500},
		Config:         pregel.Config{Workers: workers, Parallel: true},
	}
}

// Validate rejects a Rounds other than 1 or 2 and then an invalid engine
// configuration (see pregel.Config.Validate). It is the one check of Rounds:
// AssemblePlan and the ppa-assembler command both run it.
func (o Options) Validate() error {
	if o.Rounds < 1 || o.Rounds > 2 {
		return fmt.Errorf("core: Rounds must be 1 or 2, got %d", o.Rounds)
	}
	return o.Config.Validate()
}

// Result is the output of one assembly run plus everything the paper's
// experiments report about it.
type Result struct {
	// Contigs is the final contig set (after the second merge round).
	Contigs []ContigRec
	// Round1Contigs is the contig set after the first merge, before error
	// correction (used by experiment E8: N50 growth).
	Round1Contigs []ContigRec

	// Vertex-count collapse (experiment E9, §V): canonical k-mer vertices,
	// then vertices after merging (ambiguous k-mers + contigs), then final
	// contigs.
	KmerVertices, MidVertices, FinalContigs int

	// KmerLabel and ContigLabel are the two labeling runs (Tables II/III).
	KmerLabel, ContigLabel *LabelStats

	// Error-correction counters.
	BubblesPruned, TipVerticesRemoved int
	TipsDroppedAtMerge                [2]int
	// BranchesCut counts edges removed by optional branch splitting.
	BranchesCut int

	// K1Distinct / K1Kept report the θ filter of operation ①.
	K1Distinct, K1Kept int64

	// SimSeconds is the end-to-end simulated cluster time; WallSeconds the
	// host wall-clock time.
	SimSeconds, WallSeconds float64

	// LocalMessages and RemoteMessages split the pipeline's total shuffle
	// traffic by network tier (read off the shared clock): local messages
	// stayed on their worker, remote ones crossed the simulated wire. The
	// split depends on the placement (the worker count); the totals do not.
	LocalMessages, RemoteMessages int64

	// Checkpoint I/O across the whole pipeline (read off the shared
	// clock): saves and restores performed, and their total bytes. All
	// zero when Options.CheckpointEvery is zero.
	CheckpointSaves, CheckpointRestores             int64
	CheckpointBytesWritten, CheckpointBytesRestored int64

	// Clock is the simulated-cluster clock the run charged.
	Clock *pregel.SimClock
}

// Env renders the options' engine configuration as a workflow environment
// sharing the given clock (nil starts a fresh one on Run).
func (o Options) Env(clock *pregel.SimClock) *workflow.Env {
	return &workflow.Env{Config: o.Config, Clock: clock}
}

// Spec renders the options as the paper's canned workflow ①②③④⑤⑥②③, or
// just ①②③ with Rounds == 1, in the spec grammar of OpRegistry; every op
// takes its parameters from the options. A nonzero BranchSplitRatio adds the
// split op before tip removal. Append fasta or scaffold to write output.
func (o Options) Spec() string {
	spec := "build,label,merge"
	if o.Rounds == 1 {
		return spec
	}
	spec += ",bubble,rebuild,link"
	if o.BranchSplitRatio > 0 {
		spec += fmt.Sprintf(",split:ratio=%d", o.BranchSplitRatio)
	}
	return spec + ",tiptrim,label,merge"
}

// AssemblePlan validates the options and parses their Spec over the op
// catalog of flow.go. Custom workflows build their own plans from the same
// ops. A zero Rounds means two here; Assemble, which validates its options
// as they are, refuses it.
func AssemblePlan(opt Options) (*workflow.Plan[State], error) {
	if opt.Rounds == 0 {
		opt.Rounds = 2
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return workflow.Parse(OpRegistry(opt), opt.Spec(), ArtReads)
}

// Assemble runs the paper's workflow ①②③④⑤⑥②③ over the sharded reads: DBG
// construction, contig labeling and merging, bubble filtering, tip removal,
// then a second labeling/merging round to grow contigs across corrected
// regions. It is a thin canned plan over the workflow layer: the options'
// Spec is parsed into ops (AssemblePlan) and the per-op metrics fold back
// into the Result.
func Assemble(readShards [][]string, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	plan, err := AssemblePlan(opt)
	if err != nil {
		return nil, err
	}
	env := opt.Env(pregel.NewSimClock(opt.Cost))
	st := &State{Reads: readShards}
	if err := plan.Run(env, st); err != nil {
		return nil, err
	}
	res := newResult(st, env.Clock)
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// newResult folds a finished plan's per-op metrics and its clock's totals
// into a Result.
func newResult(st *State, clock *pregel.SimClock) *Result {
	res := &Result{Clock: clock}
	m := &st.Metrics
	res.K1Distinct, res.K1Kept = m.K1Distinct, m.K1Kept
	res.KmerVertices, res.MidVertices = m.KmerVertices, m.MidVertices
	if len(m.Labels) > 0 {
		res.KmerLabel = m.Labels[0]
	}
	if len(m.Labels) > 1 {
		res.ContigLabel = m.Labels[1]
	}
	for i, d := range m.MergeDroppedTips {
		if i < len(res.TipsDroppedAtMerge) {
			res.TipsDroppedAtMerge[i] = d
		}
	}
	res.BubblesPruned = m.BubblesPruned
	res.TipVerticesRemoved = m.TipVerticesRemoved
	res.BranchesCut = m.BranchesCut
	res.Round1Contigs = m.MergeContigs[0]
	res.Contigs = m.MergeContigs[len(m.MergeContigs)-1]
	res.FinalContigs = len(res.Contigs)
	res.SimSeconds = clock.Seconds()
	res.LocalMessages = clock.LocalMessages()
	res.RemoteMessages = clock.RemoteMessages()
	res.CheckpointSaves = clock.CheckpointSaves()
	res.CheckpointRestores = clock.CheckpointRestores()
	res.CheckpointBytesWritten = clock.CheckpointBytesWritten()
	res.CheckpointBytesRestored = clock.CheckpointBytesRestored()
	return res
}

// BuildMixedGraph assembles the operation-⑤ input graph: the ambiguous
// k-mers of a labeled graph (keeping only their k-mer-to-k-mer edges; edges
// into merged paths are re-established by LinkContigs) plus the given
// contig vertices. It is exported so custom workflows can compose the
// operations differently from the stock pipeline.
func BuildMixedGraph(g1 *Graph, contigs [][]ContigRec, cfg pregel.Config, clock *pregel.SimClock) *Graph {
	cfg.MessageBytes = MsgWireBytes
	g2 := pregel.Convert[VData, Msg](g1, cfg, func(id pregel.VertexID, v VData, emit func(pregel.VertexID, VData)) {
		if !v.Ambig {
			return
		}
		emit(id, VData{Node: v.Node.Filtered(v.NbrAmbig)})
	})
	g2.UseClock(clock)
	for _, shard := range contigs {
		for _, c := range shard {
			g2.AddVertex(c.ID, VData{Node: c.Node})
		}
	}
	return g2
}
