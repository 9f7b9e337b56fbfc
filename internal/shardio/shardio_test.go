package shardio

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPartSizes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := s.PartSizes()
	if err != nil || len(sizes) != 0 {
		t.Fatalf("empty store: sizes=%v err=%v", sizes, err)
	}
	if err := s.WriteShards([][]string{{"abcd"}, {"ab", "cd"}, {}}); err != nil {
		t.Fatal(err)
	}
	sizes, err = s.PartSizes()
	if err != nil {
		t.Fatal(err)
	}
	// "abcd\n" = 5 bytes; "ab\ncd\n" = 6; empty part = 0.
	want := []int64{5, 6, 0}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("part %d size = %d, want %d", i, sizes[i], want[i])
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]string{{"a", "b"}, {"c"}, {"d", "e", "f"}}
	if err := s.WriteShards(shards); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadShards(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("shards = %d", len(got))
	}
	for i := range shards {
		if len(got[i]) != len(shards[i]) {
			t.Fatalf("shard %d length %d", i, len(got[i]))
		}
		for j := range shards[i] {
			if got[i][j] != shards[i][j] {
				t.Errorf("shard %d line %d = %q", i, j, got[i][j])
			}
		}
	}
}

func TestReadShardsRedistributes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteShards([][]string{{"1", "2", "3", "4", "5"}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadShards(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("shards = %d", len(got))
	}
	var all []string
	for _, sh := range got {
		all = append(all, sh...)
	}
	sort.Strings(all)
	want := []string{"1", "2", "3", "4", "5"}
	for i := range want {
		if all[i] != want[i] {
			t.Errorf("line %d = %q", i, all[i])
		}
	}
}

func TestWriteReplacesOldParts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteShards([][]string{{"a"}, {"b"}, {"c"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteShards([][]string{{"x"}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadShards(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != "x" {
		t.Errorf("stale parts survived: %v", got)
	}
}

func TestEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadShards(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty store returned %v", got)
	}
}

// TestInterleavedPairsRoundTrip covers the scaffolding input path: an
// interleaved paired read set must survive a store round-trip with mates
// kept adjacent when read back in on-disk order (workers = 0), and must
// lose no reads when redistributed to any other shard count.
func TestInterleavedPairsRoundTrip(t *testing.T) {
	var interleaved []string
	for i := 0; i < 20; i++ {
		interleaved = append(interleaved,
			fmt.Sprintf("PAIR%02d/1", i), fmt.Sprintf("PAIR%02d/2", i))
	}
	for _, parts := range []int{1, 3} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Shard whole pairs: each part receives consecutive (R1, R2) blocks.
		shards := make([][]string, parts)
		for i := 0; i+1 < len(interleaved); i += 2 {
			w := (i / 2) % parts
			shards[w] = append(shards[w], interleaved[i], interleaved[i+1])
		}
		if err := s.WriteShards(shards); err != nil {
			t.Fatal(err)
		}

		// workers=0: on-disk order, mates stay adjacent.
		got, err := s.ReadShards(0)
		if err != nil {
			t.Fatal(err)
		}
		var flat []string
		for _, sh := range got {
			flat = append(flat, sh...)
		}
		if len(flat) != len(interleaved) {
			t.Fatalf("parts=%d: %d reads back, want %d", parts, len(flat), len(interleaved))
		}
		for i := 0; i+1 < len(flat); i += 2 {
			if flat[i][:6] != flat[i+1][:6] || flat[i][6:] != "/1" || flat[i+1][6:] != "/2" {
				t.Fatalf("parts=%d: mates separated at %d: %q %q", parts, i, flat[i], flat[i+1])
			}
		}

		// Any re-replicated shard count preserves the read multiset.
		for _, workers := range []int{1, 2, 5, 7} {
			re, err := s.ReadShards(workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(re) != workers {
				t.Fatalf("asked for %d shards, got %d", workers, len(re))
			}
			count := map[string]int{}
			for _, sh := range re {
				for _, line := range sh {
					count[line]++
				}
			}
			if len(count) != len(interleaved) {
				t.Fatalf("parts=%d workers=%d: %d distinct reads, want %d", parts, workers, len(count), len(interleaved))
			}
			for _, r := range interleaved {
				if count[r] != 1 {
					t.Fatalf("parts=%d workers=%d: read %q seen %d times", parts, workers, r, count[r])
				}
			}
		}
	}
}

// writeParts writes the given parts directly, one file per entry of parts
// (part number → lines), bypassing WriteShards.
func writeParts(t testing.TB, dir string, parts map[int][]string) {
	t.Helper()
	for n, lines := range parts {
		body := ""
		for _, l := range lines {
			body += l + "\n"
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%05d", n)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadShardsRefusesGaps: a store whose parts are not numbered 0, 1,
// 2, ... fails to read, naming the first missing part, instead of reading
// the parts before the gap; WriteShards still replaces every part.
func TestReadShardsRefusesGaps(t *testing.T) {
	for _, c := range []struct {
		parts   []int
		missing string
	}{
		{[]int{0, 2}, "part-00001"},
		{[]int{1}, "part-00000"},
		{[]int{1, 2, 3}, "part-00000"},
		{[]int{0, 1, 3, 5}, "part-00002"},
	} {
		dir := t.TempDir()
		parts := map[int][]string{}
		for _, n := range c.parts {
			parts[n] = []string{fmt.Sprintf("line of part %d", n)}
		}
		writeParts(t, dir, parts)
		// Neither a stray file nor a misnamed part is a part.
		for _, name := range []string{"part-1", "part-00001.tmp", "README"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("x\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadShards(0)
		if err == nil || !strings.Contains(err.Error(), c.missing+" is missing") {
			t.Errorf("parts %v: read %v, err %v; want an error naming %s", c.parts, got, err, c.missing)
		}
		if _, err := s.PartSizes(); err == nil {
			t.Errorf("parts %v: PartSizes did not refuse the gap", c.parts)
		}
		if err := s.WriteShards([][]string{{"a"}}); err != nil {
			t.Fatalf("parts %v: WriteShards over the gap: %v", c.parts, err)
		}
		if got, err := s.ReadShards(0); err != nil || !reflect.DeepEqual(got, [][]string{{"a"}}) {
			t.Errorf("parts %v: after WriteShards read %v, %v; want [[a]]", c.parts, got, err)
		}
	}
}

// FuzzReadShards: for any set of part numbers below 8 and any line
// contents, ReadShards returns every line of every part in order — per
// part when the worker count is 0 or matches, round-robin over the
// concatenation otherwise — or, when a part is missing, an error; never a
// silent drop.
func FuzzReadShards(f *testing.F) {
	f.Add(uint8(0b101), []byte("a\nb\x00c\nd"), uint8(0))
	f.Add(uint8(0b111), []byte("x\x00y\x00\x00z"), uint8(2))
	f.Add(uint8(0b110), []byte("q"), uint8(3))
	f.Add(uint8(0), []byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, set uint8, data []byte, workers uint8) {
		// NUL separates parts and LF lines; CR is the scanner's to strip.
		chunks := strings.Split(strings.ReplaceAll(string(data), "\r", ""), "\x00")
		parts := map[int][]string{}
		var nums []int
		for n := 0; n < 8; n++ {
			if set>>n&1 == 0 {
				continue
			}
			var lines []string
			if len(nums) < len(chunks) && chunks[len(nums)] != "" {
				lines = strings.Split(chunks[len(nums)], "\n")
			}
			parts[n] = lines
			nums = append(nums, n)
		}
		dir := t.TempDir()
		writeParts(t, dir, parts)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		w := int(workers % 5)
		got, err := s.ReadShards(w)
		contiguous := len(nums) == 0 || nums[len(nums)-1] == len(nums)-1
		if !contiguous {
			if err == nil {
				t.Fatalf("parts %v: read %q without an error", nums, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("parts %v: %v", nums, err)
		}
		want := make([][]string, len(nums))
		for i, n := range nums {
			want[i] = parts[n]
		}
		if w > 0 && w != len(want) {
			rr := make([][]string, w)
			i := 0
			for _, shard := range want {
				for _, line := range shard {
					rr[i%w] = append(rr[i%w], line)
					i++
				}
			}
			want = rr
		}
		if len(got) != len(want) {
			t.Fatalf("parts %v, workers %d: %d shards, want %d", nums, w, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) || len(want[i]) > 0 && !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("parts %v, workers %d: shard %d is %q, want %q", nums, w, i, got[i], want[i])
			}
		}
	})
}
