// Package shardio is a minimal sharded line store standing in for HDFS:
// each logical worker owns one part-file (part-00000, part-00001, ...), as
// Hadoop would place blocks. Operations may load their input from a store
// or — the point of the paper's in-memory chaining extension — skip it
// entirely and hand shards between jobs in memory. The store exists so the
// CLI tools and examples can demonstrate both paths.
package shardio

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Store is a directory of part-files.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardio: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) partPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("part-%05d", i))
}

// WriteShards writes one part-file per shard, replacing existing parts.
func (s *Store) WriteShards(shards [][]string) error {
	if err := s.removeParts(); err != nil {
		return err
	}
	for i, shard := range shards {
		f, err := os.Create(s.partPath(i))
		if err != nil {
			return fmt.Errorf("shardio: %w", err)
		}
		w := bufio.NewWriter(f)
		for _, line := range shard {
			if _, err := fmt.Fprintln(w, line); err != nil {
				f.Close()
				return fmt.Errorf("shardio: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("shardio: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("shardio: %w", err)
		}
	}
	return nil
}

// ReadShards loads every part-file in order, and refuses a store whose part
// numbering has a gap. If workers > 0 and differs
// from the stored part count, lines are redistributed round-robin across
// the requested number of shards (as a re-replicated HDFS read would).
func (s *Store) ReadShards(workers int) ([][]string, error) {
	parts, err := s.partFiles()
	if err != nil {
		return nil, err
	}
	var all [][]string
	for _, p := range parts {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("shardio: %w", err)
		}
		var lines []string
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, fmt.Errorf("shardio: %w", err)
		}
		f.Close()
		all = append(all, lines)
	}
	if workers <= 0 || workers == len(all) {
		return all, nil
	}
	out := make([][]string, workers)
	i := 0
	for _, shard := range all {
		for _, line := range shard {
			out[i%workers] = append(out[i%workers], line)
			i++
		}
	}
	return out, nil
}

// PartSizes returns the byte size of every part-file in order — what a
// cost model needs to price a store round trip without knowing the
// store's file layout.
func (s *Store) PartSizes() ([]int64, error) {
	parts, err := s.partFiles()
	if err != nil {
		return nil, err
	}
	sizes := make([]int64, len(parts))
	for i, p := range parts {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("shardio: %w", err)
		}
		sizes[i] = fi.Size()
	}
	return sizes, nil
}

// partFiles returns the store's part-files in order. The parts must be
// numbered 0, 1, 2, ... without a gap: a missing part is an error naming
// it, never a shorter read.
func (s *Store) partFiles() ([]string, error) {
	nums, err := s.partNumbers()
	if err != nil {
		return nil, err
	}
	parts := make([]string, len(nums))
	for i, n := range nums {
		if n != i {
			return nil, fmt.Errorf("shardio: %s: part-%05d is missing (the store holds part-%05d)", s.dir, i, n)
		}
		parts[i] = s.partPath(i)
	}
	return parts, nil
}

// partNumbers lists the numbers of the store's part-files, ascending. A
// part-file is named exactly as partPath names it; other files are not
// parts.
func (s *Store) partNumbers() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("shardio: %w", err)
	}
	var nums []int
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), "part-")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(digits)
		if err != nil || n < 0 || fmt.Sprintf("part-%05d", n) != e.Name() {
			continue
		}
		nums = append(nums, n)
	}
	slices.Sort(nums)
	return nums, nil
}

// removeParts deletes every part-file, gaps or not.
func (s *Store) removeParts() error {
	nums, err := s.partNumbers()
	if err != nil {
		return err
	}
	for _, n := range nums {
		if err := os.Remove(s.partPath(n)); err != nil {
			return fmt.Errorf("shardio: %w", err)
		}
	}
	return nil
}
