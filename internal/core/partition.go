package core

import (
	"fmt"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/workflow"
)

// This file is the assembler's placement catalog over the engine's
// pluggable Partitioner layer: the named strategies the CLI and workflow
// specs can select.
//
// Placement never changes what the assembler outputs — the engine is
// placement-deterministic and contig identity is pinned to the hash-grouped
// merge reduce — it only changes which messages cross the simulated wire,
// which is exactly what the two-tier cost model measures.

// PartitionerNames lists the selectable strategies, for flag help and
// error messages.
const PartitionerNames = "hash or minimizer"

// MakePartitioner builds a named placement strategy:
//
//	hash       SplitMix64 scatter (the default; byte-identical to the
//	           engine's historical behavior)
//	minimizer  k-mers placed by their canonical minimizer, so DBG-adjacent
//	           k-mers — which share k-1 bases and almost always a
//	           minimizer — co-locate (see dbg.MinimizerPartitioner); the
//	           measured locality winner on the assemble+scaffold workload
//
// k is the run's k-mer length, which sizes the minimizer windows.
func MakePartitioner(name string, k int) (pregel.Partitioner, error) {
	switch name {
	case "", "hash":
		return pregel.HashPartitioner{}, nil
	case "minimizer":
		if err := dna.ValidK(k); err != nil {
			return nil, fmt.Errorf("core: minimizer partitioner: %w", err)
		}
		return dbg.NewMinimizerPartitioner(k), nil
	}
	return nil, fmt.Errorf("core: unknown partitioner %q (want %s)", name, PartitionerNames)
}

// PartitionOp sets the plan's vertex-placement strategy from its plan
// position onward: graphs built by later ops (build, rebuild, scaffold)
// adopt it, while graphs already live keep the placement they were
// constructed with (follow with a stage seam to re-shard an existing
// graph). In specs it appears as
// partition:scheme=hash|minimizer (with an optional :k=N sizing the
// minimizer windows).
type PartitionOp struct {
	// Scheme is a MakePartitioner name.
	Scheme string
	// K sizes the minimizer windows (the run's k-mer length).
	K int
}

// Info implements workflow.Op.
func (o PartitionOp) Info() workflow.Info {
	return workflow.Info{Name: "partition"}
}

// Run implements workflow.Op.
func (o PartitionOp) Run(env *workflow.Env, st *State) error {
	p, err := MakePartitioner(o.Scheme, o.K)
	if err != nil {
		return err
	}
	env.Partitioner = p
	return nil
}
