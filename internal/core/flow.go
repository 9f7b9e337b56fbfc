package core

import (
	"fmt"
	"os"
	"path/filepath"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/shardio"
	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/workflow"
)

// This file is the assembler's op catalog for the workflow layer: every
// assembly operation of the paper's API (§IV-B) as a first-class
// workflow.Op with typed artifacts and per-op configuration. The old
// monolithic Options struct decomposes into these per-op structs;
// Assemble and ScaffoldContigs are canned plans over them (pipeline.go),
// and the ppa-assembler CLI exposes the same catalog as a -workflow spec
// through OpRegistry.

// Artifacts produced and consumed by the catalog. "labels" and "ambig" are
// scratch annotations living on graph vertices (written by the labeling
// job); a staging seam round-trips only durable segment data, so it
// consumes both — which is how the planner rejects, before any compute, a
// seam placed where the next op would silently read lost state.
const (
	// ArtReads is the sharded read set ([][]string).
	ArtReads workflow.Artifact = "reads"
	// ArtPairs is the paired-end read list ([]scaffold.Pair).
	ArtPairs workflow.Artifact = "pairs"
	// ArtGraph is the live segment graph (*core.Graph).
	ArtGraph workflow.Artifact = "graph"
	// ArtLabels marks that the graph's vertices carry fresh contig labels.
	ArtLabels workflow.Artifact = "labels"
	// ArtAmbig marks that vertices carry ambiguity annotations
	// (VData.Ambig/NbrAmbig), which rebuilding the mixed graph consumes.
	ArtAmbig workflow.Artifact = "ambig"
	// ArtMixed is the freshly rebuilt mixed graph (ambiguous k-mers +
	// contig vertices) whose k-mer adjacency has not yet been relinked;
	// only the link op can turn it back into an operable graph. Keeping it
	// distinct from ArtGraph is what stops a plan from tip-trimming or
	// relabeling a graph whose adjacency is still missing (which would
	// silently delete real sequence).
	ArtMixed workflow.Artifact = "mixed"
	// ArtLinked marks that ambiguous vertices' adjacency has been rebuilt
	// with contig announcements (operation ⑤ setup).
	ArtLinked workflow.Artifact = "linked"
	// ArtContigs is the current per-worker contig set ([][]ContigRec).
	ArtContigs workflow.Artifact = "contigs"
	// ArtScaffolds is the scaffolding result.
	ArtScaffolds workflow.Artifact = "scaffolds"
	// ArtFasta is the rendered FASTA record set.
	ArtFasta workflow.Artifact = "fasta"
)

// State is the typed artifact store a plan threads through core's ops.
// Exactly one instance travels the whole plan; each op reads the artifacts
// it declared in Needs and replaces the ones it Produces.
type State struct {
	// K is the k-mer length, set by the build op (or by the caller when a
	// plan starts from pre-built artifacts); merge and tiptrim consume it
	// for the k-1 overlap arithmetic.
	K int

	Reads   [][]string
	Pairs   []scaffold.Pair
	Graph   *Graph
	Contigs [][]ContigRec

	Scaffold        *scaffold.Result
	ScaffoldContigs []scaffold.Contig
	Fasta           []fastx.Record

	Metrics Metrics
}

// Metrics accumulates the per-op counters the paper's experiments report;
// Assemble folds them into a Result.
type Metrics struct {
	K1Distinct, K1Kept int64
	KmerVertices       int
	MidVertices        int
	// Labels collects one LabelStats per labeling op, in plan order.
	Labels []*LabelStats
	// MergeDroppedTips and MergeGroups record each merge op's tip drops
	// and group count. MergeContigs holds flattened contig snapshots of
	// the first and most recent merge only (the two any consumer reads),
	// so long custom plans do not retain every intermediate contig set.
	MergeDroppedTips   []int
	MergeGroups        []int
	MergeContigs       [][]ContigRec
	BubblesPruned      int
	TipVerticesRemoved int
	BranchesCut        int
}

func (st *State) needK() (int, error) {
	if st.K <= 0 {
		return 0, fmt.Errorf("core: k-mer length unknown (set State.K or start the plan with a build op)")
	}
	return st.K, nil
}

// BuildDBGOp is operation ①: DBG construction from reads, followed by the
// in-memory conversion into the segment graph.
type BuildDBGOp struct {
	// K is the k-mer length (odd, <= 31; the paper uses 31).
	K int
	// Theta drops (k+1)-mers with coverage <= Theta.
	Theta uint32
}

// Info implements workflow.Op.
func (o BuildDBGOp) Info() workflow.Info {
	return workflow.Info{Name: "build", Needs: []workflow.Artifact{ArtReads},
		Produces: []workflow.Artifact{ArtGraph}}
}

// Run implements workflow.Op.
func (o BuildDBGOp) Run(env *workflow.Env, st *State) error {
	cfg := env.Config()
	build, err := dbg.BuildDBG(env.Clock, cfg, st.Reads, o.K, o.Theta)
	if err != nil {
		return err
	}
	st.Metrics.K1Distinct, st.Metrics.K1Kept = build.K1Distinct, build.K1Kept
	st.Metrics.KmerVertices = build.Graph.VertexCount()
	st.Graph = NewSegmentGraph(build, cfg, o.K)
	st.K = o.K
	return nil
}

// LabelOp is operation ②: contig labeling (list ranking or simplified
// S-V), which also annotates every vertex with its neighbors' ambiguity.
type LabelOp struct {
	Algo Labeler
}

// Info implements workflow.Op.
func (o LabelOp) Info() workflow.Info {
	return workflow.Info{Name: "label", Needs: []workflow.Artifact{ArtGraph},
		Produces: []workflow.Artifact{ArtLabels, ArtAmbig}}
}

// Run implements workflow.Op.
func (o LabelOp) Run(env *workflow.Env, st *State) error {
	st.Graph.SetJobPrefix(env.JobPrefix())
	ls, err := LabelContigs(st.Graph, o.Algo)
	if err != nil {
		return err
	}
	st.Metrics.Labels = append(st.Metrics.Labels, ls)
	return nil
}

// MergeOp is operation ③: grouping labeled vertices into contigs. Labels
// are spent by the merge; relabel before merging again.
type MergeOp struct {
	// TipLen drops dead-ending groups no longer than this at merge time.
	TipLen int
}

// Info implements workflow.Op.
func (o MergeOp) Info() workflow.Info {
	return workflow.Info{Name: "merge",
		Needs:    []workflow.Artifact{ArtGraph, ArtLabels},
		Consumes: []workflow.Artifact{ArtLabels},
		Produces: []workflow.Artifact{ArtContigs}}
}

// Run implements workflow.Op.
func (o MergeOp) Run(env *workflow.Env, st *State) error {
	k, err := st.needK()
	if err != nil {
		return err
	}
	merge, err := MergeContigs(st.Graph, k, o.TipLen)
	if err != nil {
		return err
	}
	st.Contigs = merge.Contigs
	m := &st.Metrics
	m.MergeDroppedTips = append(m.MergeDroppedTips, merge.DroppedTips)
	m.MergeGroups = append(m.MergeGroups, merge.Groups)
	flat := pregel.Flatten(merge.Contigs)
	if len(m.MergeContigs) < 2 {
		m.MergeContigs = append(m.MergeContigs, flat)
	} else {
		m.MergeContigs[1] = flat
	}
	return nil
}

// BubblePopOp is operation ④: bubble filtering over the contig set.
type BubblePopOp struct {
	// EditDist prunes a bubble arm whose edit distance to a stronger
	// parallel arm is below this threshold (paper: 5).
	EditDist int
	// MinCov additionally prunes arms with coverage below this threshold
	// whenever a stronger parallel arm exists (0 disables).
	MinCov uint32
}

// Info implements workflow.Op.
func (o BubblePopOp) Info() workflow.Info {
	return workflow.Info{Name: "bubble", Needs: []workflow.Artifact{ArtContigs},
		Produces: []workflow.Artifact{ArtContigs}}
}

// Run implements workflow.Op.
func (o BubblePopOp) Run(env *workflow.Env, st *State) error {
	bub, err := FilterBubblesCfg(env.Clock, env.MRConfig(), st.Contigs, o.EditDist, o.MinCov)
	if err != nil {
		return err
	}
	st.Contigs = bub.Contigs
	st.Metrics.BubblesPruned += bub.Pruned
	return nil
}

// RebuildOp is the in-memory conversion between jobs ③/④ and ⑤: the
// ambiguous k-mers of the labeled graph plus the surviving contigs become
// a fresh mixed graph. The contig set is absorbed into the graph (merge
// again to get one back), the ambiguity annotations are spent, and the
// result is a not-yet-operable mixed graph: its k-mers dropped every edge
// into merged paths, so the link op must run before anything else touches
// it (the planner enforces this by consuming "graph").
type RebuildOp struct{}

// Info implements workflow.Op.
func (o RebuildOp) Info() workflow.Info {
	return workflow.Info{Name: "rebuild",
		Needs:    []workflow.Artifact{ArtGraph, ArtAmbig, ArtContigs},
		Consumes: []workflow.Artifact{ArtGraph, ArtAmbig, ArtContigs, ArtLinked},
		Produces: []workflow.Artifact{ArtMixed}}
}

// Run implements workflow.Op.
func (o RebuildOp) Run(env *workflow.Env, st *State) error {
	st.Graph = BuildMixedGraph(st.Graph, st.Contigs, env.Config(), env.Clock)
	st.Metrics.MidVertices = st.Graph.VertexCount()
	st.Contigs = nil
	return nil
}

// LinkContigsOp is the setup phase of operation ⑤: contig vertices
// announce themselves to their end k-mers, which rebuild their adjacency,
// turning the rebuilt mixed graph back into an operable segment graph.
type LinkContigsOp struct{}

// Info implements workflow.Op.
func (o LinkContigsOp) Info() workflow.Info {
	return workflow.Info{Name: "link",
		Needs:    []workflow.Artifact{ArtMixed},
		Consumes: []workflow.Artifact{ArtMixed},
		Produces: []workflow.Artifact{ArtGraph, ArtLinked}}
}

// Run implements workflow.Op.
func (o LinkContigsOp) Run(env *workflow.Env, st *State) error {
	st.Graph.SetJobPrefix(env.JobPrefix())
	_, err := LinkContigs(st.Graph)
	return err
}

// SplitOp is the Spaler-style branch-splitting extension: dominated edges
// at ambiguous vertices are cut, leaving dangling paths for tip removal.
type SplitOp struct {
	// Ratio cuts an edge when a parallel edge out-covers it Ratio-to-one
	// (must be >= 2).
	Ratio uint32
}

// Info implements workflow.Op.
func (o SplitOp) Info() workflow.Info {
	return workflow.Info{Name: "split", Needs: []workflow.Artifact{ArtGraph},
		Produces: []workflow.Artifact{ArtGraph}}
}

// Run implements workflow.Op.
func (o SplitOp) Run(env *workflow.Env, st *State) error {
	st.Graph.SetJobPrefix(env.JobPrefix())
	split, err := SplitBranches(st.Graph, o.Ratio)
	if err != nil {
		return err
	}
	st.Metrics.BranchesCut += split.EdgesCut
	return nil
}

// TipTrimOp is the wave phase of operation ⑤: REQUEST/DELETE waves delete
// dangling paths no longer than MinLen.
type TipTrimOp struct {
	// MinLen is the tip-length threshold (paper: 80).
	MinLen int
}

// Info implements workflow.Op.
func (o TipTrimOp) Info() workflow.Info {
	return workflow.Info{Name: "tiptrim", Needs: []workflow.Artifact{ArtGraph},
		Produces: []workflow.Artifact{ArtGraph}}
}

// Run implements workflow.Op.
func (o TipTrimOp) Run(env *workflow.Env, st *State) error {
	k, err := st.needK()
	if err != nil {
		return err
	}
	st.Graph.SetJobPrefix(env.JobPrefix())
	tips, err := RemoveTips(st.Graph, k, o.MinLen)
	if err != nil {
		return err
	}
	st.Metrics.TipVerticesRemoved += tips.RemovedVertices
	return nil
}

// StageOp is an explicit staging seam: the live segment graph and contig
// set are dumped to a shardio store (the paper's HDFS positioning between
// jobs of different systems) and immediately reloaded. Only durable
// segment data survives — labels and ambiguity annotations do not, which
// the planner enforces by consuming them. Dump and reload are charged to
// the simulated clock at checkpoint-I/O rates.
type StageOp struct {
	// Dir is the store directory; empty stages through a temporary
	// directory that is removed after the reload.
	Dir string
}

// Info implements workflow.Op.
func (o StageOp) Info() workflow.Info {
	return workflow.Info{Name: "stage",
		NeedsAny: []workflow.Artifact{ArtGraph, ArtMixed, ArtContigs},
		Consumes: []workflow.Artifact{ArtLabels, ArtAmbig}}
}

// Run implements workflow.Op.
func (o StageOp) Run(env *workflow.Env, st *State) error {
	if st.Graph == nil && st.Contigs == nil {
		return fmt.Errorf("core: stage seam has nothing to stage (no graph or contigs yet)")
	}
	dir := o.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ppa-stage-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if st.Graph != nil {
		store, err := shardio.Open(filepath.Join(dir, "segments"))
		if err != nil {
			return err
		}
		if err := DumpSegments(st.Graph, store); err != nil {
			return err
		}
		if err := chargeStageIO(env, store); err != nil {
			return err
		}
		g, err := LoadSegments(store, env.Config(), env.Clock)
		if err != nil {
			return err
		}
		st.Graph = g
	}
	if st.Contigs != nil {
		store, err := shardio.Open(filepath.Join(dir, "contigs"))
		if err != nil {
			return err
		}
		if err := DumpContigs(st.Contigs, store); err != nil {
			return err
		}
		if err := chargeStageIO(env, store); err != nil {
			return err
		}
		contigs, err := LoadContigs(store)
		if err != nil {
			return err
		}
		st.Contigs = contigs
	}
	return nil
}

// chargeStageIO charges a staging round trip to the simulated clock: every
// worker writes and re-reads its part-file in parallel, so the charge is
// carried by the largest part at checkpoint-I/O rates.
func chargeStageIO(env *workflow.Env, store *shardio.Store) error {
	sizes, err := store.PartSizes()
	if err != nil {
		return err
	}
	var max float64
	for _, s := range sizes {
		if b := float64(s); b > max {
			max = b
		}
	}
	env.Clock.ChargeCheckpoint(max)
	env.Clock.ChargeRecovery(max)
	return nil
}

// EmitFastaOp renders the current contig set as FASTA records (named and
// numbered exactly as the ppa-assembler CLI writes them).
type EmitFastaOp struct {
	// MinLen omits contigs shorter than this (0 keeps everything).
	MinLen int
}

// Info implements workflow.Op.
func (o EmitFastaOp) Info() workflow.Info {
	return workflow.Info{Name: "fasta", Needs: []workflow.Artifact{ArtContigs},
		Produces: []workflow.Artifact{ArtFasta}}
}

// Run implements workflow.Op.
func (o EmitFastaOp) Run(env *workflow.Env, st *State) error {
	var recs []fastx.Record
	for i, c := range pregel.Flatten(st.Contigs) {
		if c.Len() < o.MinLen {
			continue
		}
		recs = append(recs, fastx.Record{
			Name: fmt.Sprintf("contig_%d length=%d cov=%d", i+1, c.Len(), c.Node.Cov),
			Seq:  c.Node.Seq.String(),
		})
	}
	st.Fasta = recs
	return nil
}

// ScaffoldOp is the pipeline's stage ⑦ as a workflow op: paired-end
// scaffolding of the current contig set (mate placement and link bundling,
// link filtering, and the ordering/orientation wave — the jobs of package
// scaffold). Unset library options inherit the plan's environment.
type ScaffoldOp struct {
	Lib scaffold.Options
}

// Info implements workflow.Op.
func (o ScaffoldOp) Info() workflow.Info {
	return workflow.Info{Name: "scaffold",
		Needs:    []workflow.Artifact{ArtContigs, ArtPairs},
		Produces: []workflow.Artifact{ArtScaffolds}}
}

// Run implements workflow.Op.
func (o ScaffoldOp) Run(env *workflow.Env, st *State) error {
	flat := pregel.Flatten(st.Contigs)
	contigs := make([]scaffold.Contig, len(flat))
	for i, c := range flat {
		contigs[i] = scaffold.Contig{
			ID:   c.ID,
			Name: fmt.Sprintf("contig_%d", i+1),
			Seq:  c.Node.Seq,
		}
	}
	opt := o.Lib
	if opt.Workers <= 0 {
		opt.Workers = env.Workers
	}
	if opt.Cost == (pregel.CostModel{}) {
		opt.Cost = env.Cost
	}
	if opt.Partitioner == nil {
		opt.Partitioner = env.Partitioner
	}
	if opt.MessageBytes <= 0 {
		opt.MessageBytes = env.MessageBytes
	}
	if !opt.Parallel {
		opt.Parallel = env.Parallel
	}
	if opt.Clock == nil {
		opt.Clock = env.Clock
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = env.CheckpointEvery
	}
	if opt.Checkpointer == nil {
		opt.Checkpointer = env.Checkpointer
	}
	if opt.Faults == nil {
		opt.Faults = env.Faults
	}
	if !opt.Resume {
		opt.Resume = env.Resume
	}
	if opt.JobPrefix == "" {
		opt.JobPrefix = env.JobPrefix()
	}
	if opt.Tracer == nil {
		opt.Tracer = env.Tracer
	}
	if opt.Metrics == nil {
		opt.Metrics = env.Metrics
	}
	if opt.Warn == nil {
		opt.Warn = env.Warn
	}
	sres, err := scaffold.Build(contigs, st.Pairs, opt)
	if err != nil {
		return err
	}
	st.Scaffold = sres
	st.ScaffoldContigs = contigs
	return nil
}

// TraceOp turns telemetry on for the rest of the plan: it opens the
// requested trace/metrics sinks, layers the trace sink over any tracer the
// environment already carries, and registers closers so everything flushes
// when the plan finishes (even a failed one). It is how the CLI's
// `trace:file=...` spec op gives arbitrary user workflows the same
// observability as the -trace flag.
type TraceOp struct {
	// File is the trace output path ("" = no trace sink).
	File string
	// Format selects the trace encoding: "jsonl" (default) or "chrome"
	// (trace_event JSON for Perfetto / chrome://tracing).
	Format string
	// Metrics is the Prometheus-text metrics dump path ("" = no dump).
	Metrics string
}

// Info implements workflow.Op. The op needs no artifacts: it may open any
// plan, or sit mid-plan to trace only the ops after it.
func (o TraceOp) Info() workflow.Info { return workflow.Info{Name: "trace"} }

// Run implements workflow.Op.
func (o TraceOp) Run(env *workflow.Env, st *State) error {
	if o.File != "" {
		f, err := os.Create(o.File)
		if err != nil {
			return fmt.Errorf("core: trace sink: %w", err)
		}
		var sink interface {
			telemetry.Tracer
			Close() error
		}
		switch o.Format {
		case "", "jsonl":
			sink = telemetry.NewJSONLWriter(f)
		case "chrome":
			sink = telemetry.NewChromeWriter(f)
		default:
			f.Close()
			return fmt.Errorf("core: trace format %q: want jsonl or chrome", o.Format)
		}
		env.Tracer = telemetry.Multi(env.Tracer, sink)
		env.AddCloser(sink.Close)
	}
	if o.Metrics != "" {
		if env.Metrics == nil {
			env.Metrics = telemetry.NewRegistry()
		}
		reg, path := env.Metrics, o.Metrics
		env.AddCloser(func() error {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("core: metrics dump: %w", err)
			}
			if err := reg.WritePrometheus(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	// A graph built by an earlier op captured the pre-trace telemetry in
	// its Config; retrofit the live sinks so the remaining ops on it are
	// traced too.
	if st.Graph != nil {
		st.Graph.SetTelemetry(env.Tracer, env.Metrics)
	}
	return nil
}

// OpDefaults seeds the spec-registry factories with defaults for
// parameters a spec leaves unset — the ppa-assembler CLI passes its global
// flag values here, so `-workflow "build,label,merge"` honors -k and -tip.
type OpDefaults struct {
	K              int
	Theta          uint32
	TipLen         int
	BubbleEditDist int
	BubbleMinCov   uint32
	Labeler        Labeler
	MinLen         int
	Scaffold       scaffold.Options
}

// DefaultOpDefaults mirrors DefaultOptions for spec parsing.
func DefaultOpDefaults() OpDefaults {
	return OpDefaults{K: 21, Theta: 1, TipLen: 80, BubbleEditDist: 5, Labeler: LabelerLR}
}

// OpRegistry returns the spec registry of the assembler's op catalog, the
// grammar behind the ppa-assembler -workflow flag:
//
//	build[:k=21][:theta=1]      DBG construction (op ①)
//	label[:algo=lr|sv]          contig labeling (op ②); aliases: listrank, svlabel
//	merge[:tiplen=80]           contig merging (op ③)
//	bubble[:editdist=5][:mincov=0]  bubble filtering (op ④)
//	rebuild                     mixed-graph conversion (ambiguous k-mers + contigs)
//	partition[:scheme=hash|range|minimizer][:k=21]
//	                            vertex placement for graphs built from here on
//	link                        contig announcement (op ⑤ setup)
//	split:ratio=N               branch splitting (Spaler extension)
//	tiptrim[:minlen=80]         tip removal waves (op ⑤)
//	stage[:dir=PATH]            dump/reload seam through a shardio store
//	trace[:file=PATH][:format=jsonl|chrome][:metrics=PATH]
//	                            telemetry sinks for the rest of the plan
//	fasta[:minlen=0]            render contigs as FASTA
//	scaffold[:insert=0][:insertsd=0][:minsupport=3][:minlen=500][:seed=31]
//	                            paired-end scaffolding (stage ⑦)
func OpRegistry(def OpDefaults) workflow.Registry[State] {
	labelOp := func(algo Labeler) workflow.Factory[State] {
		return func(p *workflow.Params) (workflow.Op[State], error) {
			return LabelOp{Algo: algo}, p.Err()
		}
	}
	return workflow.Registry[State]{
		"build": func(p *workflow.Params) (workflow.Op[State], error) {
			return BuildDBGOp{K: p.Int("k", def.K), Theta: p.Uint32("theta", def.Theta)}, p.Err()
		},
		"label": func(p *workflow.Params) (workflow.Op[State], error) {
			op := LabelOp{}
			switch algo := p.Str("algo", ""); algo {
			case "", "lr":
				op.Algo = def.Labeler
				if algo == "lr" {
					op.Algo = LabelerLR
				}
			case "sv":
				op.Algo = LabelerSV
			default:
				return nil, fmt.Errorf("parameter algo=%q: want lr or sv", algo)
			}
			return op, p.Err()
		},
		"listrank": labelOp(LabelerLR),
		"svlabel":  labelOp(LabelerSV),
		"merge": func(p *workflow.Params) (workflow.Op[State], error) {
			return MergeOp{TipLen: p.Int("tiplen", def.TipLen)}, p.Err()
		},
		"bubble": func(p *workflow.Params) (workflow.Op[State], error) {
			return BubblePopOp{
				EditDist: p.Int("editdist", def.BubbleEditDist),
				MinCov:   p.Uint32("mincov", def.BubbleMinCov),
			}, p.Err()
		},
		"rebuild": func(p *workflow.Params) (workflow.Op[State], error) {
			return RebuildOp{}, p.Err()
		},
		"partition": func(p *workflow.Params) (workflow.Op[State], error) {
			op := PartitionOp{Scheme: p.Str("scheme", "hash"), K: p.Int("k", def.K)}
			// Validate the scheme at parse time so a typo fails before any
			// compute, like every other spec error.
			if _, err := MakePartitioner(op.Scheme, op.K); err != nil {
				return nil, err
			}
			return op, p.Err()
		},
		"link": func(p *workflow.Params) (workflow.Op[State], error) {
			return LinkContigsOp{}, p.Err()
		},
		"split": func(p *workflow.Params) (workflow.Op[State], error) {
			op := SplitOp{Ratio: p.Uint32("ratio", 0)}
			if op.Ratio < 2 {
				return nil, fmt.Errorf("parameter ratio=%d: must be >= 2", op.Ratio)
			}
			return op, p.Err()
		},
		"tiptrim": func(p *workflow.Params) (workflow.Op[State], error) {
			return TipTrimOp{MinLen: p.Int("minlen", def.TipLen)}, p.Err()
		},
		"stage": func(p *workflow.Params) (workflow.Op[State], error) {
			return StageOp{Dir: p.Str("dir", "")}, p.Err()
		},
		"trace": func(p *workflow.Params) (workflow.Op[State], error) {
			op := TraceOp{
				File:    p.Str("file", ""),
				Format:  p.Str("format", "jsonl"),
				Metrics: p.Str("metrics", ""),
			}
			if op.Format != "jsonl" && op.Format != "chrome" {
				return nil, fmt.Errorf("parameter format=%q: want jsonl or chrome", op.Format)
			}
			if op.File == "" && op.Metrics == "" {
				return nil, fmt.Errorf("trace op needs file= and/or metrics=")
			}
			return op, p.Err()
		},
		"fasta": func(p *workflow.Params) (workflow.Op[State], error) {
			return EmitFastaOp{MinLen: p.Int("minlen", def.MinLen)}, p.Err()
		},
		"scaffold": func(p *workflow.Params) (workflow.Op[State], error) {
			lib := def.Scaffold
			lib.InsertMean = p.Float("insert", lib.InsertMean)
			lib.InsertSD = p.Float("insertsd", lib.InsertSD)
			lib.MinSupport = p.Int("minsupport", lib.MinSupport)
			lib.MinContigLen = p.Int("minlen", lib.MinContigLen)
			lib.SeedLen = p.Int("seed", lib.SeedLen)
			return ScaffoldOp{Lib: lib}, p.Err()
		},
	}
}
