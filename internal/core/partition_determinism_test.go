package core

import (
	"bytes"
	"fmt"
	"testing"

	"ppaassembler/internal/pregel"
)

// modPartitioner places by the ID's value modulo the worker count: a
// placement unlike hash (k-mers by their last bases, contigs by their low
// ID bits), so a pipeline run under it moves most vertices off the worker
// hash gives them.
type modPartitioner struct{}

func (modPartitioner) Name() string { return "mod" }
func (modPartitioner) Assign(id pregel.VertexID, workers int) int {
	return int(uint64(id) % uint64(workers))
}

// TestPipelinePartitionerByteIdentity is the placement-independence
// contract at pipeline scale: the assemble+scaffold workload must produce
// byte-identical contig and scaffold FASTA — and identical experiment
// counters and total traffic — under the hash placement and a placement
// unlike it, for workers in {1, 4, 7}, sequential and parallel alike.
// Placement may only move the local/remote traffic split. (Hash under the
// parallel schedule is TestPipelineParallelDeterminism's.)
func TestPipelinePartitionerByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline partitioner matrix is slow")
	}
	reads, pairs := exampleGenomeReads(t)
	for _, workers := range []int{1, 4, 7} {
		cBase, sBase, resBase, sresBase := runPipeline(t, reads, pairs, workers, false, nil)
		baseCounters := pipelineCounters(resBase, sresBase)
		baseTotal := resBase.LocalMessages + resBase.RemoteMessages
		for _, parallel := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d partitioner=mod parallel=%v", workers, parallel)
			c, s, res, sres := runPipeline(t, reads, pairs, workers, parallel, func(o *Options) { o.Partitioner = modPartitioner{} })
			if !bytes.Equal(c, cBase) {
				t.Errorf("%s: contig FASTA differs from hash", label)
			}
			if !bytes.Equal(s, sBase) {
				t.Errorf("%s: scaffold FASTA differs from hash", label)
			}
			if got := pipelineCounters(res, sres); got != baseCounters {
				t.Errorf("%s: counters\n %s\nhash\n %s", label, got, baseCounters)
			}
			if total := res.LocalMessages + res.RemoteMessages; total != baseTotal {
				t.Errorf("%s: total traffic %d != hash total %d", label, total, baseTotal)
			}
			if workers > 1 && res.RemoteMessages == resBase.RemoteMessages {
				t.Errorf("%s: remote messages %d equal hash's: the placement moved nothing", label, res.RemoteMessages)
			}
		}
	}
}
