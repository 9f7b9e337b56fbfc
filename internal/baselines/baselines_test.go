package baselines

import (
	"strings"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/quality"
	"ppaassembler/internal/readsim"
)

const testK = 15

func dataset(t *testing.T, length int, subRate float64, seed int64) (dna.Seq, [][]string) {
	t.Helper()
	ref, err := genome.Generate(genome.Spec{Name: "t", Length: length, Repeats: 2, RepeatLen: 60, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 60, Coverage: 20, SubRate: subRate, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return ref, pregel.ShardSlice(reads, 4)
}

func opts() Options {
	return Options{K: testK, Theta: 1, TipLen: 50, Workers: 4}
}

func allAssemblers() []Assembler {
	return []Assembler{PPA{}, ABySS{}, Ray{}, SWAP{}}
}

func TestAllAssemblersProduceCorrectContigsOnCleanReads(t *testing.T) {
	ref, shards := dataset(t, 3000, 0, 21)
	fwd := ref.String()
	rc := ref.ReverseComplement().String()
	for _, a := range allAssemblers() {
		res, err := a.Assemble(shards, opts())
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if len(res.Contigs) == 0 {
			t.Fatalf("%s produced no contigs", a.Name())
		}
		total := 0
		for _, c := range res.Contigs {
			total += c.Len()
			s := c.String()
			if !strings.Contains(fwd, s) && !strings.Contains(rc, s) {
				// SWAP's greedy rule may produce chimeras even on clean
				// repeats; everyone else must be exact.
				if a.Name() != "SWAP-style" {
					t.Errorf("%s: contig is not a reference substring", a.Name())
				}
			}
		}
		if total < 1500 {
			t.Errorf("%s: contigs cover only %d bases of 3000", a.Name(), total)
		}
		if res.SimSeconds <= 0 {
			t.Errorf("%s: no simulated time charged", a.Name())
		}
	}
}

func TestPPAQualityBeatsBaselinesOnErrorfulReads(t *testing.T) {
	ref, shards := dataset(t, 16000, 0.005, 22)
	reports := map[string]quality.Report{}
	for _, a := range allAssemblers() {
		res, err := a.Assemble(shards, opts())
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		rep := quality.Evaluate(res.Contigs, ref, 100)
		reports[a.Name()] = rep
		t.Logf("%s: contigs=%d N50=%d frac=%.1f%% misasm=%d",
			a.Name(), rep.NumContigs, rep.N50, rep.GenomeFraction, rep.Misassemblies)
	}
	ppa := reports["PPA-assembler"]
	// The Table-IV shape: PPA strictly beats the conservative baselines on
	// contiguity; the greedy SWAP-style may tie or slightly exceed PPA's
	// N50 only by accepting misassembly risk, never beat it cleanly.
	for _, b := range []string{"ABySS-style", "Ray-style"} {
		if ppa.N50 < reports[b].N50 {
			t.Errorf("PPA N50 %d below %s N50 %d", ppa.N50, b, reports[b].N50)
		}
	}
	swap := reports["SWAP-style"]
	if swap.N50 > ppa.N50*11/10 && swap.Misassemblies <= ppa.Misassemblies {
		t.Errorf("SWAP-style cleanly beat PPA: N50 %d vs %d, misassemblies %d vs %d",
			swap.N50, ppa.N50, swap.Misassemblies, ppa.Misassemblies)
	}
	if ppa.Misassemblies > swap.Misassemblies {
		t.Errorf("PPA misassemblies %d exceed SWAP-style %d", ppa.Misassemblies, swap.Misassemblies)
	}
}

func TestABySSProbingCreatesSpuriousAmbiguity(t *testing.T) {
	// On a genome where two k-mers exist whose concatenation was never
	// read, probing fragments contigs that (k+1)-verified construction
	// keeps whole. Statistically, ABySS-style must not beat Ray-style in
	// contiguity on the same clean input.
	ref, shards := dataset(t, 6000, 0, 23)
	ab, err := ABySS{}.Assemble(shards, opts())
	if err != nil {
		t.Fatal(err)
	}
	ray, err := Ray{}.Assemble(shards, opts())
	if err != nil {
		t.Fatal(err)
	}
	abN50 := quality.Evaluate(ab.Contigs, ref, 100).N50
	rayN50 := quality.Evaluate(ray.Contigs, ref, 100).N50
	if abN50 > rayN50 {
		t.Errorf("probing-built N50 %d exceeds verified-edge N50 %d", abN50, rayN50)
	}
}

func TestABySSInsensitiveToWorkers(t *testing.T) {
	_, shards := dataset(t, 6000, 0.003, 24)
	sim := func(w int) float64 {
		o := opts()
		o.Workers = w
		res, err := ABySS{}.Assemble(pregel.ShardSlice(pregel.Flatten(shards), w), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimSeconds
	}
	t1, t8 := sim(1), sim(8)
	// The serial coordinator stage dominates: 8 workers must not even
	// halve the simulated time.
	if t8 < t1/2 {
		t.Errorf("ABySS-style sped up too much: %f -> %f", t1, t8)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	_, shards := dataset(t, 3000, 0.005, 26)
	for _, a := range allAssemblers() {
		r1, err := a.Assemble(shards, opts())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := a.Assemble(shards, opts())
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Contigs) != len(r2.Contigs) {
			t.Fatalf("%s: nondeterministic contig count", a.Name())
		}
		for i := range r1.Contigs {
			if !r1.Contigs[i].Equal(r2.Contigs[i]) {
				t.Fatalf("%s: nondeterministic contig %d", a.Name(), i)
			}
		}
	}
}

func TestInvalidKRejected(t *testing.T) {
	for _, a := range allAssemblers() {
		o := opts()
		o.K = 16
		if _, err := a.Assemble([][]string{{"ACGT"}}, o); err == nil {
			t.Errorf("%s accepted even k", a.Name())
		}
	}
}
