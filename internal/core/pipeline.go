package core

import (
	"fmt"
	"time"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/workflow"
)

// Options configures an assembly run. The defaults mirror the paper's
// experimental settings (§V) scaled to this reproduction: edit-distance
// threshold 5 for bubble filtering and length threshold 80 for tip removal.
//
// Options is the compatibility shim over the workflow layer: it decomposes
// into the per-op option structs of the op catalog (BuildDBGOp, LabelOp,
// MergeOp, BubblePopOp, SplitOp, TipTrimOp — see AssemblePlan) plus a
// workflow.Env carrying the engine-wide settings. New code composing its
// own workflows should use those directly.
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
	// Workers is the number of logical Pregel workers.
	Workers int
	// Labeler chooses the contig-labeling algorithm for both rounds.
	Labeler Labeler
	// Rounds of labeling+merging: 1 = stop after the first merge (no error
	// correction), 2 = the paper's workflow ①②③④⑤⑥②③. DefaultOptions
	// sets 2; Assemble refuses any other value.
	Rounds int
	// Cost parameterizes the simulated cluster (zero value = default).
	Cost pregel.CostModel
	// Parallel runs every stage's logical workers on all cores (see
	// pregel.Config.Parallel). DefaultOptions sets it; false is the
	// sequential reference schedule. It never changes the assembler's
	// output.
	Parallel bool
	// Partitioner is the vertex-placement strategy for every stage (nil =
	// hash, the historical behavior). Build one with MakePartitioner;
	// placement changes simulated network locality but never the
	// assembler's output.
	Partitioner pregel.Partitioner

	// CheckpointEvery enables Pregel-style fault tolerance for every job
	// of the pipeline: each run checkpoints its state every N supersteps
	// and a worker failure rolls back to the latest checkpoint and
	// replays (see pregel.Config.CheckpointEvery). Zero disables it.
	CheckpointEvery int
	// Checkpointer stores the snapshots; every stage shares it. Nil with
	// CheckpointEvery > 0 installs an in-memory store. Use a
	// pregel.DirCheckpointer to survive process death (with Resume).
	Checkpointer pregel.Checkpointer
	// Faults injects simulated worker crashes across the whole pipeline
	// (engine supersteps and MapReduce phases alike); see pregel.FaultPlan.
	Faults *pregel.FaultPlan
	// Resume makes every job fast-forward from checkpoints left in
	// Checkpointer by a previous (killed) process; see
	// pregel.Config.Resume.
	Resume bool

	// Tracer, when non-nil, receives telemetry spans from every workflow
	// op and every engine/MapReduce job of the pipeline (see
	// pregel.Config.Tracer). Nil disables tracing at zero cost.
	Tracer telemetry.Tracer
	// Metrics, when non-nil, collects engine and workflow counters for a
	// Prometheus-text dump (telemetry.Registry.WritePrometheus).
	Metrics *telemetry.Registry
	// Warn, when non-nil, receives the engine's non-fatal diagnostics from
	// every stage — corrupt checkpoint artifacts skipped during recovery
	// (see pregel.Config.Warn). Nil
	// routes each distinct message to stderr once per process.
	Warn func(msg string)

	// Optional extension operations (§V names both as user
	// customizations; zero disables them):

	// BubbleMinCov additionally prunes bubble arms with coverage below
	// this threshold whenever a stronger parallel arm exists.
	BubbleMinCov uint32
	// BranchSplitRatio enables Spaler-style branch splitting before tip
	// removal: at ambiguous vertices, edges out-covered ratio-to-one by a
	// parallel edge are cut (must be >= 2 when set).
	BranchSplitRatio uint32
	// KeepGraph retains the post-error-correction mixed graph on the
	// Result (for GFA export or further custom operations); it is
	// otherwise released for garbage collection.
	KeepGraph bool
}

// DefaultOptions returns the paper-inspired defaults with the given worker
// count.
func DefaultOptions(workers int) Options {
	return Options{
		K:              21,
		Theta:          1,
		TipLen:         80,
		BubbleEditDist: 5,
		Workers:        workers,
		Parallel:       true,
		Labeler:        LabelerLR,
		Rounds:         2,
	}
}

func (o Options) validate() error {
	if o.Rounds < 1 || o.Rounds > 2 {
		return fmt.Errorf("core: Rounds must be 1 or 2, got %d", o.Rounds)
	}
	if o.Workers <= 0 {
		return fmt.Errorf("core: Workers must be positive, got %d", o.Workers)
	}
	return nil
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
	// split depends on Options.Partitioner; the totals do not.
	LocalMessages, RemoteMessages int64

	// Checkpoint I/O across the whole pipeline (read off the shared
	// clock): saves and restores performed, and their total bytes. All
	// zero when Options.CheckpointEvery is zero.
	CheckpointSaves, CheckpointRestores             int64
	CheckpointBytesWritten, CheckpointBytesRestored int64

	// FinalGraph is the post-error-correction mixed graph (only when
	// Options.KeepGraph was set); pass it to WriteGFA.
	FinalGraph *Graph

	// Clock is the simulated-cluster clock the run charged; follow-on
	// stages (scaffolding) keep charging it so the pipeline accumulates
	// one end-to-end simulated time.
	Clock *pregel.SimClock

	// Checkpointer is the store every assembly stage checkpointed to
	// (including one installed by default when Options.CheckpointEvery was
	// set with a nil store); ScaffoldContigs inherits it so the whole
	// pipeline reserves job keys in one order, which is what Resume
	// relies on.
	Checkpointer pregel.Checkpointer
}

// Env renders the engine-wide half of the options as a workflow
// environment sharing the given clock (nil starts a fresh one on Run).
func (o Options) Env(clock *pregel.SimClock) *workflow.Env {
	return &workflow.Env{
		Workers: o.Workers, Parallel: o.Parallel, Cost: o.Cost,
		Partitioner: o.Partitioner, MessageBytes: MsgWireBytes,
		CheckpointEvery: o.CheckpointEvery, Checkpointer: o.Checkpointer,
		Faults: o.Faults, Resume: o.Resume,
		Clock:  clock,
		Tracer: o.Tracer, Metrics: o.Metrics, Warn: o.Warn,
	}
}

// AssemblePlan decomposes the options into the paper's canned workflow
// ①②③④⑤⑥②③ (or just ①②③ with Rounds == 1) over the op catalog of flow.go.
// Custom workflows build their own plans from the same ops. A zero Rounds
// means two here; Assemble, which validates its options first, refuses it.
func AssemblePlan(opt Options) (*workflow.Plan[State], error) {
	if opt.Rounds == 0 {
		opt.Rounds = 2
	}
	if opt.Rounds < 1 || opt.Rounds > 2 {
		return nil, fmt.Errorf("core: Rounds must be 1 or 2, got %d", opt.Rounds)
	}
	p := workflow.NewPlan[State](ArtReads).
		Then(BuildDBGOp{K: opt.K, Theta: opt.Theta}).
		Then(LabelOp{Algo: opt.Labeler}).
		Then(MergeOp{TipLen: opt.TipLen})
	if opt.Rounds == 2 {
		p.Then(BubblePopOp{EditDist: opt.BubbleEditDist, MinCov: opt.BubbleMinCov}).
			Then(RebuildOp{}).
			Then(LinkContigsOp{})
		if opt.BranchSplitRatio > 0 {
			p.Then(SplitOp{Ratio: opt.BranchSplitRatio})
		}
		p.Then(TipTrimOp{MinLen: opt.TipLen}).
			Then(LabelOp{Algo: opt.Labeler}).
			Then(MergeOp{TipLen: opt.TipLen})
	}
	return p, p.Err()
}

// Assemble runs the paper's workflow ①②③④⑤⑥②③ over the sharded reads: DBG
// construction, contig labeling and merging, bubble filtering, tip removal,
// then a second labeling/merging round to grow contigs across corrected
// regions. It is a thin canned plan over the workflow layer: the options
// decompose into per-op configs (AssemblePlan) and the per-op metrics fold
// back into the Result.
func Assemble(readShards [][]string, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
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

	res := &Result{Clock: env.Clock, Checkpointer: env.Checkpointer}
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
	if opt.KeepGraph && opt.Rounds == 2 {
		res.FinalGraph = st.Graph
	}
	res.SimSeconds = env.Clock.Seconds()
	res.readClockCounters()
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// readClockCounters refreshes the Result's pipeline-wide traffic and
// checkpoint-I/O totals from the shared clock.
func (r *Result) readClockCounters() {
	if r.Clock == nil {
		return
	}
	r.LocalMessages = r.Clock.LocalMessages()
	r.RemoteMessages = r.Clock.RemoteMessages()
	r.CheckpointSaves = r.Clock.CheckpointSaves()
	r.CheckpointRestores = r.Clock.CheckpointRestores()
	r.CheckpointBytesWritten = r.Clock.CheckpointBytesWritten()
	r.CheckpointBytesRestored = r.Clock.CheckpointBytesRestored()
}

// ScaffoldContigs is the pipeline's seventh stage (⑦): paired-end
// scaffolding of the final contig set with package scaffold. The contigs
// keep their (worker, ordinal) vertex IDs, and the scaffolding jobs charge
// the assembly's simulated clock, so the stage extends the same end-to-end
// accounting as operations ①–⑥. Library options (insert size, support,
// seed length) come in via opt; Workers/Parallel/Cost and the clock are
// inherited from the assembly run unless opt overrides them.
func ScaffoldContigs(res *Result, asmOpt Options, pairs []scaffold.Pair, opt scaffold.Options) (*scaffold.Result, []scaffold.Contig, error) {
	env := asmOpt.Env(res.Clock)
	if env.Workers <= 0 {
		// scaffold.Build historically defaulted a zero worker count.
		env.Workers = 1
	}
	if env.Checkpointer == nil {
		// Assemble normalizes a nil store on its own copy of the options;
		// the Result carries the store actually used.
		env.Checkpointer = res.Checkpointer
	}
	plan := workflow.NewPlan[State](ArtContigs, ArtPairs).
		Then(ScaffoldOp{Lib: opt})
	st := &State{Contigs: [][]ContigRec{res.Contigs}, Pairs: pairs}
	if err := plan.Run(env, st); err != nil {
		return nil, nil, err
	}
	if res.Clock != nil {
		res.SimSeconds = res.Clock.Seconds()
		res.readClockCounters()
	}
	return st.Scaffold, st.ScaffoldContigs, nil
}

// BuildMixedGraph assembles the operation-⑤ input graph: the ambiguous
// k-mers of a labeled graph (keeping only their k-mer-to-k-mer edges; edges
// into merged paths are re-established by LinkContigs) plus the given
// contig vertices. It is exported so custom workflows can compose the
// operations differently from the stock pipeline.
func BuildMixedGraph(g1 *Graph, contigs [][]ContigRec, cfg pregel.Config, clock *pregel.SimClock) *Graph {
	g2 := pregel.Convert[VData, Msg](g1, cfg, func(id pregel.VertexID, v VData, emit func(pregel.VertexID, VData)) {
		if !v.Ambig {
			return
		}
		node := dbg.Node{Kind: v.Node.Kind, Seq: v.Node.Seq, Cov: v.Node.Cov}
		for i, a := range v.Node.Adj {
			if i < len(v.NbrAmbig) && v.NbrAmbig[i] {
				node.Adj = append(node.Adj, a)
			}
		}
		emit(id, VData{Node: node})
	})
	g2.UseClock(clock)
	for _, shard := range contigs {
		for _, c := range shard {
			g2.AddVertex(c.ID, VData{Node: c.Node})
		}
	}
	return g2
}
