// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) over the synthetic stand-in datasets of genome.PaperDatasets. Both
// cmd/paperbench and the top-level benchmarks drive these entry points, so
// the printed rows and the benchmark measurements come from the same code.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"ppaassembler/internal/baselines"
	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/quality"
	"ppaassembler/internal/readsim"
)

// K is the k-mer length used by all experiments. The paper uses k=31 on
// 48–300 Mbp genomes; the scaled datasets here (0.2–1.6 Mbp) use k=21 to
// keep k-mer uniqueness statistics comparable.
const K = 21

// Dataset is one Table-I stand-in: a generated reference plus simulated
// reads.
type Dataset struct {
	Spec    genome.Spec
	Profile readsim.Profile
	Ref     dna.Seq
	Reads   []string
	// HasRef mirrors Table I: the two small datasets have reference
	// sequences (quality can be measured exactly), the two large ones are
	// evaluated reference-free.
	HasRef bool
}

// LoadDataset builds the named dataset ("sim-HC2", "sim-HCX", "sim-HC14",
// "sim-BI") at the given scale (1.0 = the genome.PaperDatasets size; benchmarks use
// smaller scales).
func LoadDataset(name string, scale float64) (*Dataset, error) {
	var spec genome.Spec
	for _, s := range genome.PaperDatasets() {
		if s.Name == name {
			spec = s
		}
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	if scale > 0 && scale != 1 {
		spec.Length = int(float64(spec.Length) * scale)
		spec.Repeats = int(float64(spec.Repeats)*scale) + 1
	}
	ref, err := genome.Generate(spec)
	if err != nil {
		return nil, err
	}
	prof := readsim.PaperProfile(name, spec.Seed+7)
	reads, err := readsim.Simulate(ref, prof)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Spec:    spec,
		Profile: prof,
		Ref:     ref,
		Reads:   reads,
		HasRef:  name == "sim-HC2" || name == "sim-HCX",
	}, nil
}

// AllDatasetNames lists the Table-I stand-ins in the paper's size order.
func AllDatasetNames() []string {
	return []string{"sim-HC2", "sim-HCX", "sim-HC14", "sim-BI"}
}

// coreOptions returns the paper-default pipeline options for a dataset, the
// options every assembler of a table or figure runs with.
//
// Schedule: every table and figure in this package — simulated seconds
// included — is measured under the default schedule (core.DefaultOptions
// sets Parallel), the one a user's run takes, so the simulated and the wall
// seconds of a row come from one run. That is sound for the simulated clock because the engine's
// executor never runs more logical workers at once than there are cores: a
// worker's compute is timed with a core to itself, and the simulated time
// stays within about a sixth of the sequential schedule's on the 2-core
// reference host (README "Performance" has the measured relation). For the
// least noisy simulated numbers set Parallel to false.
func coreOptions(workers int, labeler core.Labeler) core.Options {
	o := core.DefaultOptions(workers)
	o.K = K
	o.Labeler = labeler
	return o
}

// RunPPA assembles a dataset with the core pipeline.
func RunPPA(d *Dataset, workers int, labeler core.Labeler) (*core.Result, error) {
	return core.Assemble(pregel.ShardSlice(d.Reads, workers), coreOptions(workers, labeler))
}

// Table1 prints the dataset table (the stand-in for Table I).
func Table1(w io.Writer, scale float64) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\t# of Reads\tAVG Read Length\tReference Length\tHas Reference")
	for _, name := range AllDatasetNames() {
		d, err := LoadDataset(name, scale)
		if err != nil {
			return err
		}
		hasRef := "-"
		if d.HasRef {
			hasRef = "yes"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d bp\t%d\t%s\n",
			name, len(d.Reads), d.Profile.ReadLen, d.Ref.Len(), hasRef)
	}
	return tw.Flush()
}

// Fig12Row is one assembler's scaling series.
type Fig12Row struct {
	Assembler string
	// Seconds maps worker count to end-to-end simulated seconds.
	Seconds map[int]float64
	// Wall maps worker count to the measured wall seconds of the same run,
	// for the assemblers that execute their workers on the engine (the
	// baseline analogues are sequential programs charging a simulated
	// clock; their wall time says nothing about scaling).
	Wall map[int]float64
}

// fig12WallWorkers bounds the wall-seconds column: up to this many logical
// workers a commodity host has a core for each; beyond it more workers only
// shrink the simulated time.
const fig12WallWorkers = 4

// Fig12 measures end-to-end execution time (simulated cluster clock) for
// the four assemblers across worker counts — Figure 12(a) uses sim-HC14,
// Figure 12(b) sim-BI — plus PPA-assembler's wall time on this host.
func Fig12(d *Dataset, workerCounts []int) ([]Fig12Row, error) {
	asms := []baselines.Assembler{baselines.PPA{}, baselines.ABySS{}, baselines.Ray{}, baselines.SWAP{}}
	var rows []Fig12Row
	for _, a := range asms {
		row := Fig12Row{Assembler: a.Name(), Seconds: map[int]float64{}}
		if _, onEngine := a.(baselines.PPA); onEngine {
			row.Wall = map[int]float64{}
		}
		for _, w := range workerCounts {
			res, err := a.Assemble(pregel.ShardSlice(d.Reads, w), coreOptions(w, core.LabelerLR))
			if err != nil {
				return nil, err
			}
			row.Seconds[w] = res.SimSeconds
			if row.Wall != nil && w <= fig12WallWorkers {
				row.Wall[w] = res.WallSeconds
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig12 renders the scaling rows like the figure's data table:
// simulated seconds per assembler, and next to an assembler that has them
// its wall seconds under the default schedule.
func PrintFig12(w io.Writer, title string, workerCounts []int, rows []Fig12Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t", title)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t", r.Assembler)
		if r.Wall != nil {
			fmt.Fprintf(tw, "%s wall\t", r.Assembler)
		}
	}
	fmt.Fprintln(tw)
	for _, wc := range workerCounts {
		fmt.Fprintf(tw, "%d\t", wc)
		for _, r := range rows {
			fmt.Fprintf(tw, "%.1f\t", r.Seconds[wc])
			if wall, ok := r.Wall[wc]; ok {
				fmt.Fprintf(tw, "%.2f\t", wall)
			} else if r.Wall != nil {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// LabelRow is one Table II/III row: LR vs S-V on one dataset.
type LabelRow struct {
	Dataset string
	LR, SV  core.LabelStats
}

// LabelComparison runs the pipeline once per labeler and extracts the
// k-mer-labeling stats (Table II, phase="kmer") or the contig-labeling
// stats of the second round (Table III, phase="contig"). The LR column
// counts the assembler's own labeler, push-based list ranking: one
// superstep and two messages per vertex per doubling round, where the
// paper's request/respond BPPA takes two supersteps and four messages. The
// paper's LR superstep and message counts are therefore about twice these,
// less the two hello supersteps both share; the LR-vs-S-V ordering is the
// same either way. The S-V column counts the assembler's S-V in its
// on-change form: the paper's four phases per round and the same D after
// every round, but a vertex broadcasts its D only when it changed and a
// root answers its own query, so it sends roughly a third fewer messages
// than the every-round broadcast. The paper's S-V message counts should be
// compared against this column.
func LabelComparison(d *Dataset, workers int, phase string) (LabelRow, error) {
	row := LabelRow{Dataset: d.Spec.Name}
	for _, lab := range []core.Labeler{core.LabelerLR, core.LabelerSV} {
		res, err := RunPPA(d, workers, lab)
		if err != nil {
			return row, err
		}
		var st *core.LabelStats
		if phase == "contig" {
			st = res.ContigLabel
		} else {
			st = res.KmerLabel
		}
		if lab == core.LabelerLR {
			row.LR = *st
		} else {
			row.SV = *st
		}
	}
	return row, nil
}

// PrintLabelTable renders Table II or III. "LR (push)" is the labeler the
// rows were measured with (see LabelComparison): one superstep per doubling
// round, not the paper's two. "S-V" has the paper's supersteps and the
// on-change form's messages.
func PrintLabelTable(w io.Writer, title string, rows []LabelRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprintln(tw, "Dataset\tSupersteps LR (push)\tSupersteps S-V\tMessages LR (push)\tMessages S-V\tRuntime(s) LR (push)\tRuntime(s) S-V")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.3f\t%.3f\n",
			r.Dataset, r.LR.Supersteps, r.SV.Supersteps,
			r.LR.Messages, r.SV.Messages,
			r.LR.SimSeconds, r.SV.SimSeconds)
	}
	tw.Flush()
}

// QualityRow is one assembler's Table IV/V column.
type QualityRow struct {
	Assembler string
	Report    quality.Report
}

// QualityComparison assembles the dataset with all four assemblers and
// evaluates each result (against the reference when the dataset has one).
func QualityComparison(d *Dataset, workers int) ([]QualityRow, error) {
	asms := []baselines.Assembler{baselines.PPA{}, baselines.ABySS{}, baselines.Ray{}, baselines.SWAP{}}
	var rows []QualityRow
	ref := dna.Seq{}
	if d.HasRef {
		ref = d.Ref
	}
	for _, a := range asms {
		res, err := a.Assemble(pregel.ShardSlice(d.Reads, workers), coreOptions(workers, core.LabelerLR))
		if err != nil {
			return nil, err
		}
		rows = append(rows, QualityRow{
			Assembler: a.Name(),
			Report:    quality.Evaluate(res.Contigs, ref, quality.MinContigLen),
		})
	}
	return rows, nil
}

// PrintQualityTable renders Table IV (with reference metrics) or Table V.
func PrintQualityTable(w io.Writer, title string, rows []QualityRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprint(tw, "Metric")
	for _, r := range rows {
		fmt.Fprintf(tw, "\t%s", r.Assembler)
	}
	fmt.Fprintln(tw)
	cell := func(name string, f func(quality.Report) string) {
		fmt.Fprint(tw, name)
		for _, r := range rows {
			fmt.Fprintf(tw, "\t%s", f(r.Report))
		}
		fmt.Fprintln(tw)
	}
	cell("# of contigs", func(r quality.Report) string { return fmt.Sprint(r.NumContigs) })
	cell("Total length", func(r quality.Report) string { return fmt.Sprint(r.TotalLength) })
	cell("N50", func(r quality.Report) string { return fmt.Sprint(r.N50) })
	cell("Largest contig", func(r quality.Report) string { return fmt.Sprint(r.LargestContig) })
	cell("GC (%)", func(r quality.Report) string { return fmt.Sprintf("%.2f", r.GCPercent) })
	if len(rows) > 0 && rows[0].Report.HasReference {
		cell("# misassemblies", func(r quality.Report) string { return fmt.Sprint(r.Misassemblies) })
		cell("Misassembled length", func(r quality.Report) string { return fmt.Sprint(r.MisassembledLength) })
		cell("Unaligned length", func(r quality.Report) string { return fmt.Sprint(r.UnalignedLength) })
		cell("Genome fraction (%)", func(r quality.Report) string { return fmt.Sprintf("%.3f", r.GenomeFraction) })
		cell("# mismatches per 100 kbp", func(r quality.Report) string { return fmt.Sprintf("%.2f", r.MismatchesPer100kbp) })
		cell("# indels per 100 kbp", func(r quality.Report) string { return fmt.Sprintf("%.2f", r.IndelsPer100kbp) })
		cell("Largest alignment", func(r quality.Report) string { return fmt.Sprint(r.LargestAlignment) })
	}
	tw.Flush()
}

// N50Growth reports N50 after the first merge round and after the full
// workflow (the paper: 1074 -> 2070 on HC-2, experiment E8).
func N50Growth(d *Dataset, workers int) (round1, final int, err error) {
	res, err := RunPPA(d, workers, core.LabelerLR)
	if err != nil {
		return 0, 0, err
	}
	var l1, l2 []int
	for _, c := range res.Round1Contigs {
		l1 = append(l1, c.Len())
	}
	for _, c := range res.Contigs {
		l2 = append(l2, c.Len())
	}
	return quality.N50(l1), quality.N50(l2), nil
}

// VertexCollapse reports the three-stage vertex-count collapse of §V
// (experiment E9; the paper: 46.97M -> 1.00M -> 68k on HC-2).
func VertexCollapse(d *Dataset, workers int) (kmers, mid, contigs int, err error) {
	res, err := RunPPA(d, workers, core.LabelerLR)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.KmerVertices, res.MidVertices, res.FinalContigs, nil
}
