// Scaling: a miniature Figure 12 — assemble one dataset with all four
// assemblers across worker counts and print the simulated cluster times.
// The shapes to look for: PPA-assembler fastest and improving with
// workers; ABySS-style flat (its one-hop-per-round extension is a latency
// floor); Ray-style an order of magnitude slower; SWAP-style in between.
//
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"ppaassembler/internal/baselines"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
)

func main() {
	ref, err := genome.Generate(genome.Spec{
		Name: "scaling", Length: 120_000, Repeats: 8, RepeatLen: 250, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{
		ReadLen: 100, Coverage: 15, SubRate: 0.003, Seed: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	workerCounts := []int{1, 2, 4, 8, 16}
	asms := []baselines.Assembler{
		baselines.PPA{}, baselines.ABySS{}, baselines.Ray{}, baselines.SWAP{},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "# workers")
	for _, a := range asms {
		fmt.Fprintf(tw, "\t%s", a.Name())
	}
	fmt.Fprintln(tw)
	for _, w := range workerCounts {
		fmt.Fprintf(tw, "%d", w)
		for _, a := range asms {
			res, err := a.Assemble(pregel.ShardSlice(reads, w), baselines.Options{
				K: 21, Theta: 1, TipLen: 80, Workers: w,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(tw, "\t%.2fs", res.SimSeconds)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Println("\n(simulated cluster seconds; see README.md, \"Partitioning and locality\", for the cost model)")
}
