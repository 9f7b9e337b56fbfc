package core

import (
	"bytes"
	"strings"
	"testing"

	"ppaassembler/internal/pregel"
)

func TestWriteGFAStructure(t *testing.T) {
	r := seededRand(81)
	k := 11
	a := randomCleanGenome(r, 150, k)
	b := randomCleanGenome(r, 40, k)
	c := randomCleanGenome(r, 150, k)
	genome := a + b + c + b + a[:60] // repeats -> ambiguous vertices survive
	reads := readsFromGenome(genome, 60, 20)
	opt := testOpts(3, k, LabelerLR)
	plan, err := AssemblePlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{Reads: pregel.ShardSlice(reads, opt.Workers)}
	if err := plan.Run(opt.Env(nil), st); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGFA(&buf, st.Graph, st.K); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "H\tVN:Z:1.0" {
		t.Fatalf("header = %q", lines[0])
	}
	segs := map[string]bool{}
	nS, nL := 0, 0
	for _, l := range lines[1:] {
		f := strings.Split(l, "\t")
		switch f[0] {
		case "S":
			if len(f) < 4 || !strings.HasPrefix(f[3], "dp:i:") {
				t.Fatalf("bad S line %q", l)
			}
			for _, ch := range f[2] {
				if !strings.ContainsRune("ACGT", ch) {
					t.Fatalf("bad sequence in %q", l)
				}
			}
			segs[f[1]] = true
			nS++
		case "L":
			if len(f) != 6 {
				t.Fatalf("bad L line %q", l)
			}
			if f[2] != "+" && f[2] != "-" || f[4] != "+" && f[4] != "-" {
				t.Fatalf("bad orientations in %q", l)
			}
			if f[5] != "10M" {
				t.Fatalf("overlap = %q, want 10M", f[5])
			}
			nL++
		default:
			t.Fatalf("unexpected record %q", l)
		}
	}
	if nS != st.Graph.VertexCount() {
		t.Errorf("S lines = %d, vertices = %d", nS, st.Graph.VertexCount())
	}
	if nL == 0 {
		t.Error("no links exported despite ambiguous junctions")
	}
	// Every link endpoint must be a declared segment.
	for _, l := range lines[1:] {
		f := strings.Split(l, "\t")
		if f[0] == "L" && (!segs[f[1]] || !segs[f[3]]) {
			t.Errorf("link references undeclared segment: %q", l)
		}
	}
}

func TestWriteGFAEmptyGraph(t *testing.T) {
	g := pregel.NewGraph[VData, Msg](pregel.Config{Workers: 1})
	var buf bytes.Buffer
	if err := WriteGFA(&buf, g, 21); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "H\tVN:Z:1.0" {
		t.Errorf("empty graph output %q", buf.String())
	}
}
