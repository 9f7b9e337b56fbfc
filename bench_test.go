// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (§V) as testing.B benchmarks. Each
// benchmark group corresponds to one experiment of cmd/paperbench's -exp
// list, which prints the same rows from the same code at full dataset scale
// (README.md, "Development"). Benchmarks run at benchScale so
// `go test -bench=.` finishes in minutes on one core.
package bench

import (
	"sync"
	"testing"

	"ppaassembler/internal/baselines"
	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/experiments"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/quality"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
)

// benchScale shrinks the genome.PaperDatasets sizes for benchmarking.
const benchScale = 0.05

var (
	dsCache   = map[string]*experiments.Dataset{}
	dsCacheMu sync.Mutex
)

func dataset(b *testing.B, name string) *experiments.Dataset {
	b.Helper()
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if d, ok := dsCache[name]; ok {
		return d
	}
	d, err := experiments.LoadDataset(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	dsCache[name] = d
	return d
}

// BenchmarkTable1_DatasetGen measures dataset generation (reference +
// simulated reads) for each Table-I stand-in (experiment E1).
func BenchmarkTable1_DatasetGen(b *testing.B) {
	for _, name := range experiments.AllDatasetNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.LoadDataset(name, benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFig12 measures end-to-end assembly per assembler per worker count
// on one dataset; the reported metric of interest is sim-seconds/op, which
// paperbench prints as the figure's series (experiments E2/E3).
func benchFig12(b *testing.B, dsName string) {
	d := dataset(b, dsName)
	asms := []baselines.Assembler{
		baselines.PPA{}, baselines.ABySS{}, baselines.Ray{}, baselines.SWAP{},
	}
	for _, a := range asms {
		for _, w := range []int{1, 4, 16} {
			b.Run(a.Name()+"/workers="+itoa(w), func(b *testing.B) {
				shards := pregel.ShardSlice(d.Reads, w)
				simTotal := 0.0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := a.Assemble(shards, baselines.Options{
						K: experiments.K, Theta: 1, TipLen: 80, Workers: w,
					})
					if err != nil {
						b.Fatal(err)
					}
					simTotal += res.SimSeconds
				}
				b.ReportMetric(simTotal/float64(b.N), "sim-sec/op")
			})
		}
	}
}

// BenchmarkFig12a_HC14 is Figure 12(a): execution time on sim-HC14.
func BenchmarkFig12a_HC14(b *testing.B) { benchFig12(b, "sim-HC14") }

// BenchmarkFig12b_BI is Figure 12(b): execution time on sim-BI.
func BenchmarkFig12b_BI(b *testing.B) { benchFig12(b, "sim-BI") }

// benchLabeling measures one labeling run per labeler per dataset,
// reporting supersteps and messages (Tables II and III; experiments E4/E5).
func benchLabeling(b *testing.B, phase string) {
	for _, name := range experiments.AllDatasetNames() {
		d := dataset(b, name)
		for _, lab := range []core.Labeler{core.LabelerLR, core.LabelerSV} {
			b.Run(name+"/"+lab.String(), func(b *testing.B) {
				var supersteps, messages, sim float64
				for i := 0; i < b.N; i++ {
					res, err := experiments.RunPPA(d, 4, lab)
					if err != nil {
						b.Fatal(err)
					}
					st := res.KmerLabel
					if phase == "contig" {
						st = res.ContigLabel
					}
					supersteps += float64(st.Supersteps)
					messages += float64(st.Messages)
					sim += st.SimSeconds
				}
				n := float64(b.N)
				b.ReportMetric(supersteps/n, "supersteps")
				b.ReportMetric(messages/n, "messages")
				b.ReportMetric(sim/n, "sim-sec")
			})
		}
	}
}

// BenchmarkTable2_LabelKmers compares LR vs S-V for labeling unambiguous
// k-mers (Table II).
func BenchmarkTable2_LabelKmers(b *testing.B) { benchLabeling(b, "kmer") }

// BenchmarkTable3_LabelContigs compares LR vs S-V for the second labeling
// round over contigs (Table III).
func BenchmarkTable3_LabelContigs(b *testing.B) { benchLabeling(b, "contig") }

// benchQuality assembles with each assembler and evaluates QUAST-lite
// metrics, reporting N50 (Tables IV and V; experiments E6/E7).
func benchQuality(b *testing.B, dsName string) {
	d := dataset(b, dsName)
	asms := []baselines.Assembler{
		baselines.PPA{}, baselines.ABySS{}, baselines.Ray{}, baselines.SWAP{},
	}
	ref := dna.Seq{}
	if d.HasRef {
		ref = d.Ref
	}
	for _, a := range asms {
		b.Run(a.Name(), func(b *testing.B) {
			var n50, frac float64
			for i := 0; i < b.N; i++ {
				res, err := a.Assemble(pregel.ShardSlice(d.Reads, 4), baselines.Options{
					K: experiments.K, Theta: 1, TipLen: 80, Workers: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep := quality.Evaluate(res.Contigs, ref, quality.MinContigLen)
				n50 += float64(rep.N50)
				frac += rep.GenomeFraction
			}
			b.ReportMetric(n50/float64(b.N), "N50")
			if d.HasRef {
				b.ReportMetric(frac/float64(b.N), "genome-frac-%")
			}
		})
	}
}

// BenchmarkTable4_QualityHC2 is Table IV: quality on sim-HC2 (reference).
func BenchmarkTable4_QualityHC2(b *testing.B) { benchQuality(b, "sim-HC2") }

// BenchmarkTable5_QualityHC14 is Table V: quality on sim-HC14 (no
// reference).
func BenchmarkTable5_QualityHC14(b *testing.B) { benchQuality(b, "sim-HC14") }

// BenchmarkN50Growth measures the full pipeline and reports round-1 vs
// final N50 (the §V claim that the second merge round doubles N50;
// experiment E8).
func BenchmarkN50Growth(b *testing.B) {
	d := dataset(b, "sim-HC2")
	var r1, fin float64
	for i := 0; i < b.N; i++ {
		a, z, err := experiments.N50Growth(d, 4)
		if err != nil {
			b.Fatal(err)
		}
		r1 += float64(a)
		fin += float64(z)
	}
	b.ReportMetric(r1/float64(b.N), "N50-round1")
	b.ReportMetric(fin/float64(b.N), "N50-final")
}

// BenchmarkVertexCollapse reports the three-stage vertex-count collapse of
// §V (experiment E9).
func BenchmarkVertexCollapse(b *testing.B) {
	d := dataset(b, "sim-HC2")
	var km, mid, ctg float64
	for i := 0; i < b.N; i++ {
		a, m, c, err := experiments.VertexCollapse(d, 4)
		if err != nil {
			b.Fatal(err)
		}
		km += float64(a)
		mid += float64(m)
		ctg += float64(c)
	}
	b.ReportMetric(km/float64(b.N), "kmer-vertices")
	b.ReportMetric(mid/float64(b.N), "mid-vertices")
	b.ReportMetric(ctg/float64(b.N), "final-contigs")
}

// BenchmarkAblation_Theta compares the pipeline with and without the
// (k+1)-mer coverage filter — the DBG-construction design choice of op ①.
func BenchmarkAblation_Theta(b *testing.B) {
	d := dataset(b, "sim-HC2")
	for _, theta := range []uint32{0, 1, 2} {
		b.Run("theta="+itoa(int(theta)), func(b *testing.B) {
			var n50 float64
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions(4)
				opt.K = experiments.K
				opt.Theta = theta
				res, err := core.Assemble(pregel.ShardSlice(d.Reads, 4), opt)
				if err != nil {
					b.Fatal(err)
				}
				var lens []int
				for _, c := range res.Contigs {
					lens = append(lens, c.Len())
				}
				n50 += float64(quality.N50(lens))
			}
			b.ReportMetric(n50/float64(b.N), "N50")
		})
	}
}

// BenchmarkAblation_Rounds compares one merge round against the full
// workflow (the value of arrow ⑥).
func BenchmarkAblation_Rounds(b *testing.B) {
	d := dataset(b, "sim-HC2")
	for _, rounds := range []int{1, 2} {
		b.Run("rounds="+itoa(rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions(4)
				opt.K = experiments.K
				opt.Rounds = rounds
				if _, err := core.Assemble(pregel.ShardSlice(d.Reads, 4), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDBGConstruction isolates operation ① on the largest dataset.
func BenchmarkDBGConstruction(b *testing.B) {
	d := dataset(b, "sim-BI")
	shards := pregel.ShardSlice(d.Reads, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := core.DefaultOptions(4)
		opt.K = experiments.K
		opt.Rounds = 1
		if _, err := core.Assemble(shards, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaffolding measures the paired-end scaffolding stage ⑦ end to
// end on a repeat-bearing genome: assembly fragments at the planted repeats
// and the scaffolder re-joins the flanks, reporting scaffold N50 alongside
// the plain contig N50 and the stage's simulated cluster time.
func BenchmarkScaffolding(b *testing.B) {
	ref, err := genome.Generate(genome.Spec{
		Name: "bench-scaffold", Length: 60_000, Repeats: 4, RepeatLen: 300, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	simPairs, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: 100, Coverage: 25, Seed: 18},
		InsertMean: 700, InsertSD: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]scaffold.Pair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = scaffold.Pair{R1: p.R1, R2: p.R2}
	}
	reads := readsim.Interleave(simPairs)
	b.ResetTimer()
	var contigN50, scafN50, sim float64
	for i := 0; i < b.N; i++ {
		opt := core.DefaultOptions(4)
		opt.K = experiments.K
		res, err := core.Assemble(pregel.ShardSlice(reads, 4), opt)
		if err != nil {
			b.Fatal(err)
		}
		var clens []int
		for _, c := range res.Contigs {
			clens = append(clens, c.Len())
		}
		contigN50 += float64(quality.N50(clens))
		sres, contigs, err := core.ScaffoldContigs(res, opt, pairs, scaffold.Options{
			InsertMean: 700, InsertSD: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		var slens []int
		for _, s := range sres.Scaffolds {
			slens = append(slens, s.Span(contigs))
		}
		scafN50 += float64(quality.N50(slens))
		sim += sres.SimSeconds
	}
	n := float64(b.N)
	b.ReportMetric(contigN50/n, "contig-N50")
	b.ReportMetric(scafN50/n, "scaffold-N50")
	b.ReportMetric(sim/n, "scaffold-sim-sec")
}

// BenchmarkReadSimulation measures the ART-substitute throughput.
func BenchmarkReadSimulation(b *testing.B) {
	ref, err := genome.Generate(genome.Spec{Name: "bench", Length: 100_000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readsim.Simulate(ref, readsim.Profile{
			ReadLen: 100, Coverage: 10, SubRate: 0.005, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
