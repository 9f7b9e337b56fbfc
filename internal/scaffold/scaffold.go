// Package scaffold implements paired-end scaffolding as a new Pregel
// application on the engine of package pregel, extending the paper's
// workflow ①–⑥ with a seventh stage: contigs stop at every repeat and
// coverage gap, and read pairs with a known insert-size distribution are the
// classical way (ABySS, Ray, SSPACE) to order and orient them across those
// breaks.
//
// The stage runs over a brand-new graph type, the contig-link graph: one
// vertex per contig, one weighted, oriented edge per bundle of read pairs
// whose mates place on two different contigs. It is built and processed with
// the same machinery as the assembly proper:
//
//  1. mate placement + link bundling is a mini-MapReduce (§II extension 1):
//     each worker places its shard of pairs on a replicated contig k-mer
//     index and emits link observations keyed by oriented contig-end pairs,
//     which the reduce side bundles into weighted edges;
//  2. ambiguous-link filtering is a two-superstep Pregel handshake: every
//     contig keeps an end's link only when it is the end's single
//     well-supported candidate and the neighbor reciprocates;
//  3. orientation and ordering run as a wave job along the filtered chains:
//     waves start at both endpoints of every chain, the smaller endpoint's
//     wave wins, and its ID becomes the label every member of the chain
//     carries;
//  4. collection groups contigs by that label, walks each chain from its
//     head along the predecessor links, and sums lengths and rounded gaps
//     along the walk into scaffold coordinates.
//
// Every job charges the shared simulated-cluster clock, so scaffolding
// supersteps, messages and simulated seconds appear in the same accounting
// as operations ①–⑥.
package scaffold

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/telemetry"
)

// End names one side of a contig in its stored orientation: L precedes base
// 0, R follows the last base. A forward-placed contig exposes R to its
// right-hand scaffold neighbor; a flipped contig exposes L.
type End uint8

// The two contig ends.
const (
	L End = iota
	R
)

func (e End) opposite() End { return e ^ 1 }

func (e End) String() string {
	if e == L {
		return "L"
	}
	return "R"
}

// Pair is one read pair in FR orientation (both mates 5'→3', facing each
// other across the fragment).
type Pair struct {
	R1, R2 string
}

// PairUp folds an interleaved read list (R1, R2, R1, R2, ... — the layout
// cmd/readsim -paired writes) into pairs. A trailing unpaired read is an
// error.
func PairUp(reads []string) ([]Pair, error) {
	if len(reads)%2 != 0 {
		return nil, fmt.Errorf("scaffold: %d interleaved reads do not form pairs", len(reads))
	}
	pairs := make([]Pair, 0, len(reads)/2)
	for i := 0; i+1 < len(reads); i += 2 {
		pairs = append(pairs, Pair{R1: reads[i], R2: reads[i+1]})
	}
	return pairs, nil
}

// Contig is one scaffolding input: an assembled contig with the vertex ID it
// will carry in the scaffolding jobs. IDs must be unique; the assembler
// passes its (worker, ordinal) contig IDs through unchanged.
type Contig struct {
	ID   pregel.VertexID
	Name string
	Seq  dna.Seq
}

// FromSeqs wraps raw sequences as Contigs with sequential IDs, for callers
// outside the assembly pipeline.
func FromSeqs(seqs []dna.Seq) []Contig {
	out := make([]Contig, len(seqs))
	for i, s := range seqs {
		out[i] = Contig{ID: pregel.VertexID(i + 1), Name: fmt.Sprintf("contig_%d", i+1), Seq: s}
	}
	return out
}

// Options configures a scaffolding run.
type Options struct {
	// Workers is the number of logical Pregel workers.
	Workers int
	// Parallel runs engine workers on all cores (see pregel.Config.Parallel).
	Parallel bool
	// Cost parameterizes the simulated cluster (zero value = default).
	Cost pregel.CostModel
	// Partitioner places the contig-link graph's vertices (nil = hash);
	// the assembly pipeline threads its own strategy through so the whole
	// run shares one placement.
	Partitioner pregel.Partitioner
	// MessageBytes is the charged wire size of one scaffolding message
	// (0 = engine default); the pipeline passes its Msg wire size so both
	// stages price traffic consistently.
	MessageBytes int
	// Clock, when non-nil, is the shared pipeline clock scaffolding charges
	// its supersteps to; nil starts a fresh clock.
	Clock *pregel.SimClock

	// CheckpointEvery, Checkpointer, Faults and Resume configure Pregel-
	// style fault tolerance for the scaffolding jobs, exactly as on
	// pregel.Config; the assembly pipeline threads one shared store and
	// fault plan through every stage.
	CheckpointEvery int
	Checkpointer    pregel.Checkpointer
	Faults          *pregel.FaultPlan
	Resume          bool
	// JobPrefix is prepended to every scaffolding job's checkpoint key
	// (see pregel.Config.JobPrefix); the workflow layer sets a per-op
	// prefix so keys stay deterministic in arbitrary compositions.
	JobPrefix string

	// Tracer, Metrics and Warn thread telemetry and non-fatal diagnostics
	// into every scaffolding job, exactly as on pregel.Config; the
	// assembly pipeline passes its own so one trace covers the whole run.
	Tracer  telemetry.Tracer
	Metrics *telemetry.Registry
	Warn    func(msg string)

	// SeedLen is the exact-match seed length for mate placement (default
	// 31, the paper's k; must exceed the assembly k-1 so seeds cannot tie
	// across the k-1-base overlap of adjacent contigs).
	SeedLen int
	// MinSupport is the minimum number of consistent pairs behind a link
	// (default 3). Weaker links are discarded by the filter job.
	MinSupport int
	// MinContigLen excludes shorter contigs from linking (default 500).
	// Short contigs are mostly collapsed repeats, which attract links from
	// every repeat copy; excluding them lets flank contigs link directly
	// across the repeat. Excluded contigs are still emitted as singleton
	// scaffolds. Set to 1 to scaffold everything.
	MinContigLen int
	// InsertMean is the library's mean insert size; 0 estimates it from
	// pairs whose mates place on the same contig.
	InsertMean float64
	// InsertSD is the insert-size standard deviation; 0 estimates it the
	// same way.
	InsertSD float64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.SeedLen <= 0 {
		o.SeedLen = 31
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 3
	}
	if o.MinContigLen <= 0 {
		o.MinContigLen = 500
	}
	if o.CheckpointEvery > 0 && o.Checkpointer == nil {
		o.Checkpointer = pregel.NewMemCheckpointer()
	}
	return o
}

func (o Options) validate() error {
	if o.SeedLen > dna.MaxK {
		return fmt.Errorf("scaffold: seed length %d exceeds %d", o.SeedLen, dna.MaxK)
	}
	if o.InsertMean < 0 || o.InsertSD < 0 {
		return fmt.Errorf("scaffold: negative insert parameters")
	}
	return nil
}

// Scaffold is one ordered, oriented chain of contigs. All slices index the
// Build input: Contigs[i] is an input-contig index, Flip[i] its orientation
// (true = reverse complement), Gaps[i] the estimated gap in bases between
// chain members i and i+1 (may be ≤ 0 when contigs abut or overlap), and
// Starts[i] the member's scaffold start coordinate: the lengths of the
// members before it plus the gaps between them (counted as estimated, not
// clamped).
type Scaffold struct {
	Contigs []int
	Flip    []bool
	Gaps    []int
	Starts  []int
}

// Len returns the number of chained contigs.
func (s *Scaffold) Len() int { return len(s.Contigs) }

// Span returns the rendered scaffold length: contig lengths plus gap runs
// clamped to at least one N per join.
func (s *Scaffold) Span(contigs []Contig) int {
	n := 0
	for i, ci := range s.Contigs {
		n += contigs[ci].Seq.Len()
		if i > 0 {
			n += clampGap(s.Gaps[i-1])
		}
	}
	return n
}

func clampGap(g int) int {
	if g < 1 {
		return 1
	}
	return g
}

// Result is the output of one scaffolding run.
type Result struct {
	// Scaffolds covers every input contig exactly once, multi-contig chains
	// and singletons alike, ordered by first contig index.
	Scaffolds []Scaffold

	// InsertMean and InsertSD are the library parameters used (estimated
	// from same-contig pairs when not supplied).
	InsertMean, InsertSD float64

	// Pair accounting: total pairs seen, pairs with both mates placed,
	// pairs placed on one contig (insert-size evidence), pairs placed on
	// two contigs (link evidence).
	PairsTotal, PairsPlaced, PairsSameContig, PairsLinking int

	// LinkBundles counts distinct oriented contig joins observed;
	// LinksKept those surviving support and ambiguity filtering.
	LinkBundles, LinksKept int

	// Excluded counts contigs below MinContigLen (emitted as singletons);
	// CycleContigs counts contigs on cyclic chains, which are conservatively
	// emitted as singletons too.
	Excluded, CycleContigs int

	// Stats aggregates every scaffolding job; Jobs holds the per-job
	// breakdown (link MapReduce, filter, ordering wave).
	Stats *pregel.Stats
	Jobs  []*pregel.Stats

	// SimSeconds is the simulated cluster time spent scaffolding.
	SimSeconds float64
}

// Build scaffolds contigs with the given read pairs: it places mates,
// bundles links, and runs the filter and order Pregel jobs described in the
// package comment.
func Build(contigs []Contig, pairs []Pair, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	seen := map[pregel.VertexID]bool{}
	for _, c := range contigs {
		if seen[c.ID] {
			return nil, fmt.Errorf("scaffold: duplicate contig ID %x", c.ID)
		}
		seen[c.ID] = true
	}
	clock := opt.Clock
	if clock == nil {
		clock = pregel.NewSimClock(opt.Cost)
	}
	sim0 := clock.Seconds()
	cfg := pregel.Config{
		Workers: opt.Workers, Parallel: opt.Parallel, Cost: opt.Cost,
		Partitioner: opt.Partitioner, MessageBytes: opt.MessageBytes,
		CheckpointEvery: opt.CheckpointEvery, Checkpointer: opt.Checkpointer,
		Faults: opt.Faults, Resume: opt.Resume, JobPrefix: opt.JobPrefix,
		Tracer: opt.Tracer, Metrics: opt.Metrics, Warn: opt.Warn,
	}
	res := &Result{Stats: &pregel.Stats{Name: "scaffold", Workers: opt.Workers}}
	res.PairsTotal = len(pairs)

	included := make([]bool, len(contigs))
	for i, c := range contigs {
		included[i] = c.Seq.Len() >= opt.MinContigLen
		if !included[i] {
			res.Excluded++
		}
	}

	// 1. Replicated contig seed index (charged as serial build time).
	ix, err := buildIndex(contigs, included, opt.SeedLen, clock)
	if err != nil {
		return nil, err
	}

	// 2. Mate placement and link bundling (mini-MapReduce).
	links, inserts, st := bundleLinks(ix, pairs, opt, clock, res)
	res.LinkBundles = len(links)
	res.addJob(st)

	mean, sd, err := resolveInsert(opt, inserts)
	if err != nil {
		return nil, err
	}
	res.InsertMean, res.InsertSD = mean, sd

	// 3. Contig-link graph + the scaffolding Pregel jobs.
	g := buildLinkGraph(contigs, included, links, mean, cfg, clock)
	st, err = filterLinks(g, int32(opt.MinSupport))
	if err != nil {
		return nil, err
	}
	res.addJob(st)
	g.ForEach(func(id pregel.VertexID, v *SVertex) {
		for e := range v.Has {
			if v.Has[e] {
				res.LinksKept++
			}
		}
	})
	res.LinksKept /= 2 // each kept link is recorded on both endpoints

	st, err = orderChains(g)
	if err != nil {
		return nil, err
	}
	res.addJob(st)

	// 4. Collect chains into scaffold records.
	if err := collect(g, contigs, included, res); err != nil {
		return nil, err
	}
	res.SimSeconds = clock.Seconds() - sim0
	res.Stats.SimSeconds = res.SimSeconds
	return res, nil
}

func (r *Result) addJob(st *pregel.Stats) {
	r.Jobs = append(r.Jobs, st)
	r.Stats.Add(st)
}

// resolveInsert fills in library parameters from options or same-contig
// observations.
func resolveInsert(opt Options, inserts sampleStats) (mean, sd float64, err error) {
	mean, sd = opt.InsertMean, opt.InsertSD
	if mean <= 0 {
		if inserts.n == 0 {
			return 0, 0, fmt.Errorf("scaffold: no same-contig pairs to estimate insert size from; set InsertMean")
		}
		mean = inserts.mean()
	}
	if sd <= 0 {
		if inserts.n > 1 {
			sd = inserts.sd()
		}
		if sd <= 0 {
			sd = 0.1 * mean
		}
	}
	return mean, sd, nil
}

// collect groups the assigned contigs by Wave (their chain label), walks
// every chain from its head along Pred links and emits one Scaffold per
// chain, plus singletons for excluded and cyclic contigs. Starts is a
// running sum along the walk: each member starts where the previous one
// ends plus the rounded gap between them.
func collect(g *pregel.Graph[SVertex, SMsg], contigs []Contig, included []bool, res *Result) error {
	idx := make(map[pregel.VertexID]int, len(contigs))
	for i, c := range contigs {
		idx[c.ID] = i
	}
	type memberInfo struct {
		contig int
		v      SVertex
	}
	chains := map[pregel.VertexID][]memberInfo{}
	var singles []int
	g.ForEach(func(id pregel.VertexID, v *SVertex) {
		ci := idx[id]
		if !v.Assigned {
			res.CycleContigs++
			singles = append(singles, ci)
			return
		}
		chains[v.Wave] = append(chains[v.Wave], memberInfo{ci, *v})
	})
	for i := range contigs {
		if !included[i] {
			singles = append(singles, i)
		}
	}

	keys := make([]pregel.VertexID, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, k := range keys {
		members := chains[k]
		var head *memberInfo
		for i := range members {
			m := &members[i]
			if m.v.Pred == noPred {
				if head != nil {
					return fmt.Errorf("scaffold: chain %x has two heads", k)
				}
				head = m
			}
		}
		if head == nil {
			return fmt.Errorf("scaffold: chain %x has no head", k)
		}
		// succ maps each member to the member naming it as predecessor.
		succ := make(map[pregel.VertexID]*memberInfo, len(members))
		for i := range members {
			m := &members[i]
			if m.v.Pred != noPred {
				succ[m.v.Pred] = m
			}
		}
		var s Scaffold
		start := 0
		for m, n := head, 0; m != nil; n++ {
			if n > len(members) {
				return fmt.Errorf("scaffold: chain %x does not terminate", k)
			}
			if n > 0 {
				gap := int(math.Round(m.v.PredGap))
				s.Gaps = append(s.Gaps, gap)
				start += contigs[s.Contigs[n-1]].Seq.Len() + gap
			}
			s.Contigs = append(s.Contigs, m.contig)
			s.Flip = append(s.Flip, m.v.Flip)
			s.Starts = append(s.Starts, start)
			m = succ[contigs[m.contig].ID]
		}
		if len(s.Contigs) != len(members) {
			return fmt.Errorf("scaffold: chain %x walk covered %d of %d members", k, len(s.Contigs), len(members))
		}
		res.Scaffolds = append(res.Scaffolds, s)
	}
	for _, ci := range singles {
		res.Scaffolds = append(res.Scaffolds, Scaffold{
			Contigs: []int{ci}, Flip: []bool{false}, Starts: []int{0},
		})
	}
	sort.Slice(res.Scaffolds, func(a, b int) bool {
		return res.Scaffolds[a].Contigs[0] < res.Scaffolds[b].Contigs[0]
	})
	return nil
}

// Records renders scaffolds as FASTA records: oriented contig sequences
// joined by runs of N sized by the estimated gap, clamped to at least one N
// so every join is visible in the output.
func Records(contigs []Contig, scafs []Scaffold) []fastx.Record {
	recs := make([]fastx.Record, 0, len(scafs))
	for i := range scafs {
		s := &scafs[i]
		var sb strings.Builder
		sb.Grow(s.Span(contigs))
		for j, ci := range s.Contigs {
			if j > 0 {
				sb.WriteString(strings.Repeat("N", clampGap(s.Gaps[j-1])))
			}
			seq := contigs[ci].Seq
			if s.Flip[j] {
				seq = seq.ReverseComplement()
			}
			sb.WriteString(seq.String())
		}
		recs = append(recs, fastx.Record{
			Name: fmt.Sprintf("scaffold_%d contigs=%d length=%d", i+1, s.Len(), sb.Len()),
			Seq:  sb.String(),
		})
	}
	return recs
}
