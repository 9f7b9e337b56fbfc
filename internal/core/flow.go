package core

import (
	"fmt"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/workflow"
)

// This file is the assembler's op catalog for the workflow layer: every
// assembly operation of the paper's API (§IV-B) as a first-class
// workflow.Op with typed artifacts and per-op configuration. OpRegistry
// parses specs into these ops, taking every parameter a spec leaves unset
// from Options; Assemble runs Options.Spec (pipeline.go), and the
// ppa-assembler CLI runs every assembly as a spec over the same registry.

// Artifacts produced and consumed by the catalog. "labels" and "ambig" are
// scratch annotations living on graph vertices (written by the labeling
// job); the op that spends one consumes it (merge the labels, rebuild the
// ambiguity), which is how the planner rejects, before any compute, an op
// placed where it would silently read spent state.
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
	// Fasta is nil until a fasta op has run.
	Fasta []fastx.Record

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

// BuildDBGOp is operation ①: DBG construction from reads, loaded in memory
// as the segment graph.
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
	build, err := dbg.BuildDBG(env.Clock, env.Config, st.Reads, o.K, o.Theta)
	if err != nil {
		return err
	}
	st.Metrics.K1Distinct, st.Metrics.K1Kept = build.K1Distinct, build.K1Kept
	st.Graph = NewSegmentGraph(build, env.Config, env.Clock, o.K)
	st.Metrics.KmerVertices = st.Graph.VertexCount()
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
	st.Graph.SetJobPrefix(env.JobPrefix)
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
	bub, err := FilterBubbles(env.Clock, env.Config, st.Contigs, o.EditDist, o.MinCov)
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
	st.Graph = BuildMixedGraph(st.Graph, st.Contigs, env.Config, env.Clock)
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
	st.Graph.SetJobPrefix(env.JobPrefix)
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
	st.Graph.SetJobPrefix(env.JobPrefix)
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
	st.Graph.SetJobPrefix(env.JobPrefix)
	tips, err := RemoveTips(st.Graph, k, o.MinLen)
	if err != nil {
		return err
	}
	st.Metrics.TipVerticesRemoved += tips.RemovedVertices
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
	flat := pregel.Flatten(st.Contigs)
	recs := make([]fastx.Record, 0, len(flat))
	for i, c := range flat {
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
// scaffold). The jobs run under the plan's environment and charge its clock.
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
	sres, err := scaffold.Build(contigs, st.Pairs, o.Lib, env.Config, env.Clock)
	if err != nil {
		return err
	}
	st.Scaffold = sres
	st.ScaffoldContigs = contigs
	return nil
}

// OpRegistry returns the spec registry of the assembler's op catalog, the
// grammar behind the ppa-assembler -workflow flag. A parameter a spec leaves
// unset takes its value from def's assembly fields (tiptrim's minlen from
// TipLen, fasta's from MinLen, scaffold's from Scaffold), so the command's
// flags reach every spec; def's engine fields are not read:
//
//	build[:k=21][:theta=1]      DBG construction (op ①; k odd, <= 31, checked at parse)
//	label[:algo=lr|sv]          contig labeling (op ②, see ParseLabeler); aliases: listrank, svlabel
//	merge[:tiplen=80]           contig merging (op ③)
//	bubble[:editdist=5][:mincov=0]  bubble filtering (op ④)
//	rebuild                     mixed-graph conversion (ambiguous k-mers + contigs)
//	link                        contig announcement (op ⑤ setup)
//	split:ratio=N               branch splitting (Spaler extension)
//	tiptrim[:minlen=80]         tip removal waves (op ⑤)
//	fasta[:minlen=0]            render contigs as FASTA
//	scaffold[:insert=0][:insertsd=0][:minsupport=3][:minlen=500][:seed=31]
//	                            paired-end scaffolding (stage ⑦)
func OpRegistry(def Options) workflow.Registry[State] {
	labelOp := func(algo Labeler) workflow.Factory[State] {
		return func(p *workflow.Params) (workflow.Op[State], error) {
			return LabelOp{Algo: algo}, p.Err()
		}
	}
	return workflow.Registry[State]{
		"build": func(p *workflow.Params) (workflow.Op[State], error) {
			op := BuildDBGOp{K: p.Int("k", def.K), Theta: p.Uint32("theta", def.Theta)}
			if err := dna.ValidK(op.K); err != nil {
				return nil, err
			}
			return op, p.Err()
		},
		"label": func(p *workflow.Params) (workflow.Op[State], error) {
			op := LabelOp{Algo: def.Labeler}
			if algo := p.Str("algo", ""); algo != "" {
				var err error
				if op.Algo, err = ParseLabeler(algo); err != nil {
					return nil, err
				}
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
