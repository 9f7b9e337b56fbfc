package pregel

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// CkptFileInfo is the verification result for one file in a checkpoint
// directory.
type CkptFileInfo struct {
	// Name is the file's base name; Job and Step are parsed from it.
	Name string
	Job  string
	Step int
	// Delta marks .dckpt files, Temp marks stray .tmp-* files a crash left
	// mid-write (harmless debris, never counted as corruption).
	Delta bool
	Temp  bool
	// Version is the container format version the file claims (10 is the
	// only one read), 0 when the frame is too damaged to tell.
	Version int
	// Bytes is the file size; SectionEnds are the container's internal
	// boundaries (header end, then each worker section's end) — the exact
	// offsets torn-write testing truncates at.
	Bytes       int64
	SectionEnds []int64
	// Err is nil for an intact file: framing and every CRC verified.
	Err error
}

// CkptDirReport is the result of scrubbing one checkpoint directory.
type CkptDirReport struct {
	Dir   string
	Files []CkptFileInfo
}

// Corrupt returns the files that failed verification (stale temp files are
// not corruption).
func (r *CkptDirReport) Corrupt() []CkptFileInfo {
	var bad []CkptFileInfo
	for _, f := range r.Files {
		if f.Err != nil && !f.Temp {
			bad = append(bad, f)
		}
	}
	return bad
}

// VerifyCheckpointDir reads every checkpoint artifact under dir and checks
// its integrity: frame structure and CRC32C checksums.
// It is the engine behind ppa-assembler's -ckpt-verify mode.
func VerifyCheckpointDir(dir string) (*CkptDirReport, error) {
	return VerifyCheckpointDirFS(dir, OSFS())
}

// VerifyCheckpointDirFS is VerifyCheckpointDir against an injected
// filesystem.
func VerifyCheckpointDirFS(dir string, fsys FS) (*CkptDirReport, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pregel: verifying checkpoint dir: %w", err)
	}
	sort.Strings(names)
	rep := &CkptDirReport{Dir: dir}
	for _, name := range names {
		job, step, delta, ok := parseCkptName(name)
		if !ok {
			if strings.Contains(name, ".tmp-") {
				rep.Files = append(rep.Files, CkptFileInfo{Name: name, Temp: true,
					Err: fmt.Errorf("stale temp file left by an interrupted write; safe to delete")})
			}
			continue
		}
		info := CkptFileInfo{Name: name, Job: job, Step: step, Delta: delta}
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			info.Err = err
			rep.Files = append(rep.Files, info)
			continue
		}
		info.Bytes = int64(len(data))
		info.Version = ckptBlobVersion(data)
		file, bounds, err := decodeCkptFileBounds(job, data)
		switch {
		case err != nil:
			info.Err = err
		case file.Step != step:
			info.Err = fmt.Errorf("file name says step %d but the container holds step %d", step, file.Step)
		case delta != (file.Kind == ckptKindDelta):
			info.Err = fmt.Errorf("file extension and container kind disagree (kind byte %d)", file.Kind)
		default:
			info.SectionEnds = bounds
		}
		rep.Files = append(rep.Files, info)
	}
	return rep, nil
}

// parseCkptName splits a checkpoint file name (job.%08d.ckpt or .dckpt)
// into its job key and step.
func parseCkptName(name string) (job string, step int, delta, ok bool) {
	rest := name
	switch {
	case strings.HasSuffix(rest, ".dckpt"):
		rest, delta = strings.TrimSuffix(rest, ".dckpt"), true
	case strings.HasSuffix(rest, ".ckpt"):
		rest = strings.TrimSuffix(rest, ".ckpt")
	default:
		return "", 0, false, false
	}
	i := strings.LastIndex(rest, ".")
	if i < 0 {
		return "", 0, false, false
	}
	s, err := strconv.Atoi(rest[i+1:])
	if err != nil {
		return "", 0, false, false
	}
	return rest[:i], s, delta, true
}

// ckptBlobVersion peeks at a container's version field; 0 when the frame
// is too damaged to carry one.
func ckptBlobVersion(data []byte) int {
	if len(data) < len(ckptMagic)+1 || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0
	}
	v, n := binary.Uvarint(data[len(ckptMagic):])
	if n <= 0 {
		return 0
	}
	return int(v)
}
