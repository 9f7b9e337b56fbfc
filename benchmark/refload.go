package main

import "sort"

// The reference load exists because the hosts this benchmark runs on are
// shared virtual machines whose speed drifts: with no steal time reported,
// one and the same assembler run took 3.4 s and, half an hour later, 4.7 s.
// A drift like that between two sets of runs would read as a regression.
// So every timed run is bracketed by runs of a fixed synthetic program,
// measured exactly as the assembler child is, and timings are reported in
// seconds of a host on which that program takes refNominalS. The program is
// part of the benchmark, not of the repository, so no change to the
// assembler moves it.

// refloadArg makes the harness binary run the reference load and exit.
const refloadArg = "-refload"

// refNominalS is the reference load's time on the quiet reference host.
const refNominalS = 0.40

var refloadSink uint64

// refload imitates the assembler's cost profile in about 0.4 s: unsized
// appends of records into per-worker buckets, a stable reflect-swapper sort
// of each, a map index with point lookups, and many small live slices for
// the collector to trace.
func refload() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	type pair struct {
		k uint64
		v uint32
	}
	var buckets [workers][]pair
	for i := 0; i < 220_000; i++ {
		k := next()
		buckets[k%workers] = append(buckets[k%workers], pair{k >> 20, uint32(i)})
	}
	for _, b := range buckets {
		sort.SliceStable(b, func(i, j int) bool { return b[i].k < b[j].k })
	}
	index := map[uint64]int{}
	var adj [][]uint64
	for _, b := range buckets {
		for i, p := range b {
			if i%3 == 0 {
				index[p.k] = len(adj)
				adj = append(adj, make([]uint64, 0, 2+p.k%6))
			}
		}
	}
	for round := uint64(0); round < 4; round++ {
		for _, b := range buckets {
			for _, p := range b {
				if at, ok := index[p.k]; ok {
					adj[at] = append(adj[at], p.k+round)
				}
			}
		}
	}
	refloadSink += uint64(len(adj)) + uint64(buckets[0][0].v)
}
