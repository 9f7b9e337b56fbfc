package dbg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/readsim"
)

// referenceK1Mers is the specification of DBG-construction phase (i), kept
// in the test only: count every window of k+1 consecutive ACGT letters in a
// Go map (the structure BuildDBG used before it sorted), then hand each
// reducer — the owner of the window's canonical prefix k-mer — its
// (k+1)-mers above theta in ascending ID order. It shares no code with the
// build: windows are cut from the string, not slid.
func referenceK1Mers(readShards [][]string, workers int, part pregel.Partitioner, k int, theta uint32) (shards [][]K1Mer, distinct, kept int64) {
	if part == nil {
		part = pregel.HashPartitioner{}
	}
	counts := make(map[dna.Kmer]uint32)
	for _, reads := range readShards {
		for _, r := range reads {
			for i := 0; i+k+1 <= len(r); i++ {
				w := strings.ToUpper(r[i : i+k+1])
				if strings.Trim(w, "ACGT") != "" {
					continue
				}
				c, _ := dna.ParseKmer(w).Canonical(k + 1)
				counts[c]++
			}
		}
	}
	shards = make([][]K1Mer, workers)
	for id, cov := range counts {
		distinct++
		if cov > theta {
			kept++
			pref, _ := (id >> 2).Canonical(k)
			d := part.Assign(KmerID(pref), workers)
			shards[d] = append(shards[d], K1Mer{ID: id, Cov: cov})
		}
	}
	for _, s := range shards {
		sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
	}
	return shards, distinct, kept
}

// awkwardReads is a read set with everything phase (i) has to cope with:
// both strands of a small genome at depth (so counts exceed theta), 'N'
// breaks, lower-case letters, reads shorter than k+1, reads of exactly k and
// k+1 letters, an empty read and a read of nothing but 'N'.
func awkwardReads(k int) []string {
	r := rand.New(rand.NewSource(int64(k)))
	ref := make([]byte, 600)
	for i := range ref {
		ref[i] = "ACGT"[r.Intn(4)]
	}
	var reads []string
	for i := 0; i < 400; i++ {
		lo := r.Intn(len(ref) - 60)
		read := string(ref[lo : lo+20+r.Intn(40)])
		switch r.Intn(6) {
		case 0:
			read = dna.ParseSeq(read).ReverseComplement().String()
		case 1:
			b := []byte(read)
			b[r.Intn(len(b))] = 'N'
			read = string(b)
		case 2:
			read = strings.ToLower(read)
		case 3:
			b := []byte(read)
			b[r.Intn(len(b))] = "ACGT"[r.Intn(4)] // a sequencing error
			read = string(b)
		}
		reads = append(reads, read)
	}
	return append(reads, "", "NNNNNNNN", "ACG", string(ref[:k]), string(ref[:k+1]), string(ref[:k])+"N"+string(ref[k:2*k]))
}

// TestCountK1MersMatchesMapReference holds the sort-and-scan counting to the
// map-based specification: the same (k+1)-mers with the same coverage on the
// same reducer in the same order, and the same distinct/kept totals, under
// every worker count, schedule and placement.
func TestCountK1MersMatchesMapReference(t *testing.T) {
	const k = 5
	reads := awkwardReads(k)
	for _, workers := range []int{1, 4, 7} {
		// One shard more than reads warrant stays empty: round-robin over
		// workers-1 shards, then an empty last one (none at workers = 1).
		shards := pregel.ShardSlice(reads, max(workers-1, 1))
		for len(shards) < workers {
			shards = append(shards, nil)
		}
		for _, parallel := range []bool{false, true} {
			for _, part := range []pregel.Partitioner{nil, pregel.HashPartitioner{}, pregel.RangePartitioner{Bits: 2 * k}, NewMinimizerPartitioner(k)} {
				for _, theta := range []uint32{0, 2} {
					label := fmt.Sprintf("workers=%d parallel=%v partitioner=%v theta=%d", workers, parallel, part, theta)
					want, wantDistinct, wantKept := referenceK1Mers(shards, workers, part, k, theta)
					if theta > 0 && (wantKept == 0 || wantKept == wantDistinct) {
						t.Fatalf("%s: reference keeps %d of %d — the read set no longer exercises theta", label, wantKept, wantDistinct)
					}
					cfg := pregel.Config{Workers: workers, Parallel: parallel, Partitioner: part}
					res := &BuildResult{}
					got := countK1Mers(pregel.NewSimClock(pregel.DefaultCost()), buildMRConfig(cfg), shards, k, theta, res)
					if res.K1Distinct != wantDistinct || res.K1Kept != wantKept {
						t.Errorf("%s: distinct/kept = %d/%d, reference %d/%d", label, res.K1Distinct, res.K1Kept, wantDistinct, wantKept)
					}
					for d := 0; d < workers; d++ {
						if len(got[d]) == 0 && len(want[d]) == 0 {
							continue
						}
						if !reflect.DeepEqual(got[d], want[d]) {
							t.Fatalf("%s: reducer %d holds\n %v\nreference\n %v", label, d, got[d], want[d])
						}
					}
				}
			}
		}
	}
}

// FuzzCanonicalWindows holds the mapper's rolling window loop to windows cut
// from the read: for every k+1 consecutive bytes that are all ACGT letters
// (either case), in read order, exactly ParseKmer(window).Canonical(k+1).
// Reads are arbitrary bytes; k is odd in 1..31, so k = 31 reaches the
// 64-bit window whose mask is all ones.
func FuzzCanonicalWindows(f *testing.F) {
	f.Add([]byte("ATTGCAAGT"), uint8(1))
	f.Add([]byte("ACGTNACGTacgtnXACGT"), uint8(0))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte("GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC"), uint8(15))
	f.Add([]byte("acgtacgtacgtacgtacgtacgtacgtacgtNacgtacgtacgtacgtacgtacgtacgtacgta"), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, kSel uint8) {
		k := 2*int(kSel%16) + 1
		read := string(data)
		var want []uint64
		for i := 0; i+k+1 <= len(read); i++ {
			w := read[i : i+k+1]
			if strings.Trim(w, "ACGTacgt") != "" {
				continue
			}
			c, _ := dna.ParseKmer(w).Canonical(k + 1)
			want = append(want, uint64(c))
		}
		got := appendCanonicalWindows(nil, read, k)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d read %q:\n got %x\nwant %x", k, read, got, want)
		}
	})
}

// BenchmarkBuildDBGCount times phase (i) alone — window extraction, the
// per-worker sort-and-scan, shuffle, reduce-side grouping and the theta
// filter — on the shape of the benchmark's noisy90k workload (50x coverage
// of 100 bp reads with 1% substitutions, k = 21, 4 workers): at its full
// size, where one worker's ~0.9 M windows (7 MB) are far larger than L2,
// and at a fifth of it, where they nearly fit.
func BenchmarkBuildDBGCount(b *testing.B) {
	const k, workers = 21, 4
	for _, size := range []struct {
		name   string
		genome int
	}{{"noisy90k", 90_000}, {"fifth", 20_000}} {
		ref, err := genome.Generate(genome.Spec{Length: size.genome, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		reads, err := readsim.Simulate(ref, readsim.Profile{ReadLen: 100, Coverage: 50, SubRate: 0.01, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		shards := pregel.ShardSlice(reads, workers)
		mrCfg := buildMRConfig(pregel.Config{Workers: workers})
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := &BuildResult{}
				countK1Mers(pregel.NewSimClock(pregel.DefaultCost()), mrCfg, shards, k, 2, res)
				if res.K1Kept == 0 || res.K1Kept*2 > res.K1Distinct {
					b.Fatalf("kept %d of %d distinct (k+1)-mers: not a noisy read set", res.K1Kept, res.K1Distinct)
				}
			}
		})
	}
}
