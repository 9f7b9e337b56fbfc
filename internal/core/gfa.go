package core

import (
	"bufio"
	"fmt"
	"io"

	"ppaassembler/internal/dbg"
	"ppaassembler/internal/pregel"
)

// WriteGFA exports a segment graph in GFA v1, the de-facto interchange
// format for assembly graphs: one S line per segment (contigs and
// ambiguous k-mers, with a dp depth tag) and one L line per edge, oriented
// by the edge polarities (+ for the stored/canonical orientation, - for
// the reverse complement) with the fixed k-1 overlap as the CIGAR.
//
// Exporting the post-error-correction mixed graph (ambiguous k-mers plus
// surviving contigs) gives downstream tools the same picture the second
// labeling round sees.
func WriteGFA(w io.Writer, g *Graph, k int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "H\tVN:Z:1.0"); err != nil {
		return err
	}
	name := func(id pregel.VertexID) string {
		if dbg.IsContigID(id) {
			return fmt.Sprintf("ctg_%d_%d", dbg.ContigWorker(id), uint32(id))
		}
		return fmt.Sprintf("kmer_%x", uint64(id))
	}
	orient := func(p dbg.Polarity) byte {
		if p == dbg.L {
			return '+'
		}
		return '-'
	}
	var err error
	g.ForEach(func(id pregel.VertexID, v *VData) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "S\t%s\t%s\tdp:i:%d\n", name(id), v.Node.Oriented(dbg.L).String(), v.Node.Cov)
	})
	if err != nil {
		return err
	}
	g.ForEach(func(id pregel.VertexID, v *VData) {
		if err != nil {
			return
		}
		for _, a := range v.Node.Items() {
			if a.Nbr == dbg.NullID || a.Nbr < id {
				continue // the smaller endpoint emits the link
			}
			n := a
			if n.In {
				n = n.Flip()
			}
			_, err = fmt.Fprintf(bw, "L\t%s\t%c\t%s\t%c\t%dM\n",
				name(id), orient(n.PSelf), name(n.Nbr), orient(n.PNbr), k-1)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
