package main

import (
	"fmt"
	"io"

	"ppaassembler/internal/pregel"
)

// runCkptVerify scrubs the checkpoint directory (-ckpt-verify mode): every
// artifact is decoded and checksum-verified, a per-file report is written
// to w, and the number of corrupt files is returned. It never modifies the
// directory — the operator decides whether to restore, delete, or let a
// resumed run walk back past the damage.
func runCkptVerify(dir string, w io.Writer) (corrupt int, err error) {
	rep, err := pregel.VerifyCheckpointDir(dir)
	if err != nil {
		return 0, err
	}
	if len(rep.Files) == 0 {
		fmt.Fprintf(w, "%s: no checkpoint artifacts\n", dir)
		return 0, nil
	}
	for _, f := range rep.Files {
		switch {
		case f.Temp:
			fmt.Fprintf(w, "TEMP    %-40s %s\n", f.Name, f.Err)
		case f.Err != nil:
			corrupt++
			fmt.Fprintf(w, "CORRUPT %-40s v%d %7dB: %v\n", f.Name, f.Version, f.Bytes, f.Err)
		default:
			fmt.Fprintf(w, "OK      %-40s v%d %7dB job=%s step=%d sections=%d\n",
				f.Name, f.Version, f.Bytes, f.Job, f.Step, len(f.SectionEnds)-1)
		}
	}
	total := 0
	for _, f := range rep.Files {
		if !f.Temp {
			total++
		}
	}
	fmt.Fprintf(w, "%s: %d artifacts, %d corrupt\n", dir, total, corrupt)
	return corrupt, nil
}
