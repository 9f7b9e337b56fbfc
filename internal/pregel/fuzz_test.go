package pregel

import (
	"testing"
)

// foldEager replays a message batch through the engine's at-Send eager
// combine: a fold map from destination to lane position, new destinations
// appended in first-occurrence order. It mirrors sender.send with a
// combiner installed and exists so the fuzz suite can compare it against
// combineEnvelopes, the reference semantics.
func foldEager[M any](envs []envelope[M], fn func(a, b M) M) []envelope[M] {
	fold := make(map[VertexID]int32, len(envs))
	out := make([]envelope[M], 0, len(envs))
	for _, e := range envs {
		if i, ok := fold[e.dst]; ok {
			out[i].msg = fn(out[i].msg, e.msg)
			continue
		}
		fold[e.dst] = int32(len(out))
		out = append(out, e)
	}
	return out
}

// decodeBatch turns fuzz bytes into a message batch: each byte pair is one
// (destination, payload) envelope, keeping destinations in a small range so
// collisions (the interesting case) are common.
func decodeBatch(data []byte) []envelope[int64] {
	var envs []envelope[int64]
	for i := 0; i+1 < len(data); i += 2 {
		envs = append(envs, envelope[int64]{
			dst: VertexID(data[i] % 17),
			msg: int64(int8(data[i+1])),
		})
	}
	return envs
}

// FuzzCombineEquivalence checks two properties of the engine's combiner
// path on arbitrary message batches:
//
//  1. Exact equivalence: the eager at-Send fold produces the same envelopes
//     in the same order as the reference combineEnvelopes pass — even for a
//     non-commutative fold, since both fold left-to-right in emission order.
//  2. Order independence: for a commutative, associative combiner (sum, as
//     the API requires), any arrival order combines to the same
//     per-destination totals.
func FuzzCombineEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 10}, uint64(0))
	f.Add([]byte{5, 1, 5, 2, 5, 3, 9, 100, 5, 4}, uint64(12345))
	f.Add([]byte{}, uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, permSeed uint64) {
		envs := decodeBatch(data)

		// Property 1: eager fold == reference fold, exactly, under a
		// deliberately order-sensitive combiner.
		sensitive := func(a, b int64) int64 { return a*1000003 + b }
		ref := combineEnvelopes(append([]envelope[int64](nil), envs...), sensitive)
		eager := foldEager(envs, sensitive)
		if len(ref) != len(eager) {
			t.Fatalf("eager combined to %d envelopes, reference %d", len(eager), len(ref))
		}
		for i := range ref {
			if ref[i] != eager[i] {
				t.Fatalf("envelope %d: eager %+v != reference %+v", i, eager[i], ref[i])
			}
		}

		// Property 2: a commutative combiner's per-destination totals are
		// arrival-order independent. Permute with a SplitMix-driven
		// Fisher-Yates derived from the fuzzed seed.
		perm := append([]envelope[int64](nil), envs...)
		z := permSeed
		next := func() uint64 {
			z += 0x9E3779B97F4A7C15
			x := z
			x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			x = (x ^ (x >> 27)) * 0x94D049BB133111EB
			return x ^ (x >> 31)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		sum := func(a, b int64) int64 { return a + b }
		totals := func(in []envelope[int64]) map[VertexID]int64 {
			m := make(map[VertexID]int64)
			for _, e := range foldEager(in, sum) {
				m[e.dst] = e.msg
			}
			return m
		}
		a, b := totals(envs), totals(perm)
		if len(a) != len(b) {
			t.Fatalf("permuted batch folded to %d destinations, original %d", len(b), len(a))
		}
		for dst, v := range a {
			if b[dst] != v {
				t.Fatalf("destination %d: permuted total %d != original %d", dst, b[dst], v)
			}
		}
	})
}

// TestFuzzSeedsRunClean executes the fuzz corpus seeds as a plain test so
// `go test` (without -fuzz) still covers the equivalence properties.
func TestFuzzSeedsRunClean(t *testing.T) {
	seeds := [][]byte{
		{1, 2, 3, 4, 1, 10},
		{5, 1, 5, 2, 5, 3, 9, 100, 5, 4},
		{},
		{0, 255, 0, 1, 0, 2, 17, 9, 34, 8}, // dst 0 and collisions mod 17
	}
	for _, s := range seeds {
		envs := decodeBatch(s)
		sensitive := func(a, b int64) int64 { return a*1000003 + b }
		ref := combineEnvelopes(append([]envelope[int64](nil), envs...), sensitive)
		eager := foldEager(envs, sensitive)
		if len(ref) != len(eager) {
			t.Fatalf("seed %v: eager %d envelopes != reference %d", s, len(eager), len(ref))
		}
		for i := range ref {
			if ref[i] != eager[i] {
				t.Fatalf("seed %v envelope %d: %+v != %+v", s, i, eager[i], ref[i])
			}
		}
	}
}
