// Adaptive repartitioning: watch the engine cut its wire traffic below its
// own best static placement by migrating vertices while the job runs — and
// see what that costs.
//
// Static partitioners place a vertex once, from what is knowable before
// the run: the minimizer strategy co-locates DBG-adjacent k-mers and is
// the best static choice on genomic workloads. But the dominant stage of
// assembly — contig labeling by pointer-jumping list ranking — changes
// its communication pattern every round: each vertex talks to a partner
// twice as far along its contig as the round before, racing past any
// adjacency a static placement can see.
//
// With a RepartitionPolicy the engine observes the actual (sender,
// receiver) message traffic over a trailing window, condenses whole
// communicating components (contig chains) onto single workers at
// superstep barriers, and charges every relocated byte to the same
// simulated clock the savings accrue to. This example assembles one
// dataset three ways and prints the traffic split and the
// communication-bound makespan for each — watch the remote fraction drop
// well below minimizer's while the contigs stay byte-identical, and the
// makespan not follow it: at this size the relocation toll is larger than
// the wire time it saves.
//
// Run with: go run ./examples/adaptive-repartitioning
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"ppaassembler/internal/core"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
)

func main() {
	ref, err := genome.Generate(genome.Spec{
		Name: "adaptive", Length: 30_000, Repeats: 2, RepeatLen: 300, Seed: 41,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{
		ReadLen: 100, Coverage: 18, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	const workers = 4

	// Communication-bound cost model: latency and the two network tiers as
	// by DefaultCost, compute zeroed, so the numbers below are
	// deterministic and isolate what placement controls.
	cost := pregel.DefaultCost()
	cost.ComputeScale = 1e-12

	type setup struct {
		label string
		part  string
		pol   *pregel.RepartitionPolicy
	}
	setups := []setup{
		{"hash (static)", "hash", nil},
		{"minimizer (static best)", "minimizer", nil},
		{"hash + adaptive", "hash", &pregel.RepartitionPolicy{Every: 2, MaxMoves: 1 << 20}},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "placement\tremote msgs\tremote frac\tmakespan\tmigrations\tmoved vertices\tmoved bytes")
	var firstContigs []core.ContigRec
	for _, s := range setups {
		opt := core.DefaultOptions(workers)
		opt.K = 21
		opt.Cost = cost
		part, err := core.MakePartitioner(s.part, opt.K)
		if err != nil {
			log.Fatal(err)
		}
		opt.Partitioner = part
		opt.Repartition = s.pol
		res, err := core.Assemble(pregel.ShardSlice(reads, workers), opt)
		if err != nil {
			log.Fatal(err)
		}
		frac := float64(res.RemoteMessages) / float64(res.LocalMessages+res.RemoteMessages)
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.4fs\t%d\t%d\t%d\n",
			s.label, res.RemoteMessages, frac, res.SimSeconds,
			res.Migrations, res.MigratedVertices, res.MigrationBytes)

		// Placement never changes output: every setup must produce the
		// same contigs, byte for byte.
		if firstContigs == nil {
			firstContigs = res.Contigs
		} else if err := sameContigs(firstContigs, res.Contigs); err != nil {
			log.Fatalf("%s changed assembly output: %v", s.label, err)
		}
	}
	tw.Flush()

	fmt.Println("\nAll three runs produced byte-identical contigs. The adaptive run")
	fmt.Println("puts the smallest share of its messages on the wire, because")
	fmt.Println("condensing a contig chain once keeps its pointer-jumping traffic")
	fmt.Println("local at every doubling distance that follows. It does not finish")
	fmt.Println("first: every relocated byte is charged to the same clock")
	fmt.Println("(MigrationLatency + busiest sender / MigrationBytesPerSecond per")
	fmt.Println("decision), and since list ranking sends one message per pointer per")
	fmt.Println("round a 30 kbp genome's labeling traffic is too small to earn that")
	fmt.Println("toll back. Migration pays in simulated time only when the traffic")
	fmt.Println("that follows a decision outweighs the state it moved.")
}

func sameContigs(a, b []core.ContigRec) error {
	if len(a) != len(b) {
		return fmt.Errorf("contig count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Node.Seq.String() != b[i].Node.Seq.String() {
			return fmt.Errorf("contig %d differs", i)
		}
	}
	return nil
}
