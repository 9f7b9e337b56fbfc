// Staging: demonstrate the two ways consecutive jobs exchange data (§II):
// in-memory conversion (the Pregel+ extension, used by core.Assemble) and a
// round trip through the sharded part-file store (the HDFS path). The DBG
// is built, dumped to "HDFS", reloaded by a fresh process-equivalent, and
// assembly continues identically.
//
// Run with: go run ./examples/staging
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ppaassembler/internal/core"
	"ppaassembler/internal/dbg"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/shardio"
)

const k = 21

func main() {
	ref, err := genome.Generate(genome.Spec{Name: "stage", Length: 40_000, Seed: 51})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 100, Coverage: 18, Seed: 52})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "ppa-staging-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := pregel.Config{Workers: 4}
	clock := pregel.NewSimClock(pregel.DefaultCost())

	// Job 1: DBG construction, loaded as the segment graph and dumped to
	// the store (one part-file per worker, like HDFS blocks).
	build, err := dbg.BuildDBG(clock, cfg, pregel.ShardSlice(reads, cfg.Workers), k, 1)
	if err != nil {
		log.Fatal(err)
	}
	g := core.NewSegmentGraph(build, cfg, clock, k)
	store, err := shardio.Open(filepath.Join(dir, "segments"))
	if err != nil {
		log.Fatal(err)
	}
	if err := core.DumpSegments(g, store); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dumped %d segment vertices to %s\n", g.VertexCount(), store.Dir())

	// Job 2 (a different worker count, as a new cluster might have):
	// reload and continue with labeling + merging.
	cfg2 := pregel.Config{Workers: 8}
	g2, err := core.LoadSegments(store, cfg2, clock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded %d vertices onto %d workers\n", g2.VertexCount(), cfg2.Workers)
	if _, err := core.LabelContigs(g2, core.LabelerLR); err != nil {
		log.Fatal(err)
	}
	merged, err := core.MergeContigs(g2, k, 80)
	if err != nil {
		log.Fatal(err)
	}

	// Contigs can be staged the same way.
	ctgStore, err := shardio.Open(filepath.Join(dir, "contigs"))
	if err != nil {
		log.Fatal(err)
	}
	if err := core.DumpContigs(merged.Contigs, ctgStore); err != nil {
		log.Fatal(err)
	}
	back, err := core.LoadContigs(ctgStore)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for _, shard := range back {
		n += len(shard)
	}
	fmt.Printf("merged %d contig groups; %d contigs staged and reloaded intact\n",
		merged.Groups, n)
	fmt.Printf("end-to-end simulated time including staging shuffles: %.2fs\n", clock.Seconds())
}
