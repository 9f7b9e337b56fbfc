package core

import (
	"bytes"
	"fmt"
	"testing"

	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
)

// partitionerRun executes the full pipeline (assemble + scaffold) under one
// named placement strategy and renders both FASTA outputs exactly as the
// CLI does, so byte equality here is byte equality of shipped artifacts.
func partitionerRun(t *testing.T, reads []string, pairs []scaffold.Pair, workers int, parallel bool, partitioner string) (contigFasta, scaffoldFasta []byte, res *Result, sres *scaffold.Result) {
	t.Helper()
	opt := DefaultOptions(workers)
	opt.K = 21
	opt.Parallel = parallel
	part, err := MakePartitioner(partitioner, opt.K)
	if err != nil {
		t.Fatal(err)
	}
	opt.Partitioner = part
	res, err = Assemble(pregel.ShardSlice(reads, workers), opt)
	if err != nil {
		t.Fatal(err)
	}
	var recs []fastx.Record
	for i, c := range res.Contigs {
		recs = append(recs, fastx.Record{
			Name: fmt.Sprintf("contig_%d length=%d cov=%d", i+1, c.Len(), c.Node.Cov),
			Seq:  c.Node.Seq.String(),
		})
	}
	var cb bytes.Buffer
	if err := fastx.WriteFasta(&cb, recs, 70); err != nil {
		t.Fatal(err)
	}
	sres, scontigs, err := ScaffoldContigs(res, opt, pairs, scaffold.Options{
		InsertMean: 600, InsertSD: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := fastx.WriteFasta(&sb, scaffold.Records(scontigs, sres.Scaffolds), 70); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), sb.Bytes(), res, sres
}

// TestPipelinePartitionerByteIdentity is the placement-independence
// contract at pipeline scale: the assemble+scaffold workload must produce
// byte-identical contig and scaffold FASTA — and identical experiment
// counters — under every partitioner, for workers in {1, 4, 7}, sequential
// and parallel alike. Placement and schedule may only move the
// local/remote traffic split, and for multi-worker
// runs the minimizer partitioner must actually move it: fewer remote
// messages than hash.
func TestPipelinePartitionerByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline partitioner matrix is slow")
	}
	reads, pairs := exampleGenomeReads(t)
	for _, workers := range []int{1, 4, 7} {
		cBase, sBase, resBase, sresBase := partitionerRun(t, reads, pairs, workers, false, "hash")
		baseTotal := resBase.LocalMessages + resBase.RemoteMessages
		for _, partitioner := range []string{"hash", "range", "minimizer"} {
			for _, parallel := range []bool{false, true} {
				if partitioner == "hash" && !parallel {
					continue // that run is the baseline itself
				}
				label := fmt.Sprintf("workers=%d partitioner=%s parallel=%v", workers, partitioner, parallel)
				c, s, res, sres := partitionerRun(t, reads, pairs, workers, parallel, partitioner)
				if !bytes.Equal(c, cBase) {
					t.Errorf("%s: contig FASTA differs from hash", label)
				}
				if !bytes.Equal(s, sBase) {
					t.Errorf("%s: scaffold FASTA differs from hash", label)
				}
				counters := [][2]int{
					{res.KmerVertices, resBase.KmerVertices},
					{res.MidVertices, resBase.MidVertices},
					{res.FinalContigs, resBase.FinalContigs},
					{res.BubblesPruned, resBase.BubblesPruned},
					{res.TipVerticesRemoved, resBase.TipVerticesRemoved},
					{res.TipsDroppedAtMerge[0], resBase.TipsDroppedAtMerge[0]},
					{res.TipsDroppedAtMerge[1], resBase.TipsDroppedAtMerge[1]},
					{int(res.K1Kept), int(resBase.K1Kept)},
					{int(res.K1Distinct), int(resBase.K1Distinct)},
					{res.KmerLabel.Supersteps, resBase.KmerLabel.Supersteps},
					{int(res.KmerLabel.Messages), int(resBase.KmerLabel.Messages)},
					{res.ContigLabel.Supersteps, resBase.ContigLabel.Supersteps},
					{int(res.ContigLabel.Messages), int(resBase.ContigLabel.Messages)},
					{sres.Stats.Supersteps, sresBase.Stats.Supersteps},
					{int(sres.Stats.Messages), int(sresBase.Stats.Messages)},
					{sres.LinkBundles, sresBase.LinkBundles},
					{sres.LinksKept, sresBase.LinksKept},
				}
				for i, c := range counters {
					if c[0] != c[1] {
						t.Errorf("%s: counter %d = %d, hash = %d", label, i, c[0], c[1])
					}
				}
				if total := res.LocalMessages + res.RemoteMessages; total != baseTotal {
					t.Errorf("%s: total traffic %d != hash total %d", label, total, baseTotal)
				}
				// The minimizer placement is the locality workhorse: DBG
				// edges co-locate whenever the endpoints share a minimizer,
				// so its remote share must drop well below hash's scatter.
				if partitioner == "minimizer" && workers > 1 {
					if res.RemoteMessages >= resBase.RemoteMessages*95/100 {
						t.Errorf("%s: remote messages %d not at least 5%% below hash's %d",
							label, res.RemoteMessages, resBase.RemoteMessages)
					}
				}
			}
		}
	}
}
