// Package fastx reads and writes the FASTA and FASTQ formats used for
// reference sequences, simulated reads and assembled contigs. The paper's
// datasets are FASTQ files on HDFS; this reproduction reads them from the
// local filesystem.
package fastx

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Record is one sequence record. Qual is empty for FASTA records.
type Record struct {
	Name string
	Seq  string
	Qual string
}

// ReadFasta parses FASTA records from r. Multi-line sequences are joined.
func ReadFasta(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var out []Record
	var cur *Record
	var seq strings.Builder
	flush := func() {
		if cur != nil {
			cur.Seq = seq.String()
			out = append(out, *cur)
			seq.Reset()
			cur = nil
		}
	}
	line := 0
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" {
			continue
		}
		if strings.HasPrefix(t, ">") {
			flush()
			cur = &Record{Name: strings.TrimSpace(t[1:])}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("fastx: line %d: sequence before first header", line)
		}
		seq.WriteString(t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fastx: %w", err)
	}
	flush()
	return out, nil
}

// WriteFasta writes records to w, wrapping sequence lines at width (<=0
// means no wrapping).
func WriteFasta(w io.Writer, recs []Record, width int) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.Name); err != nil {
			return fmt.Errorf("fastx: %w", err)
		}
		s := rec.Seq
		if width <= 0 {
			if _, err := fmt.Fprintln(bw, s); err != nil {
				return fmt.Errorf("fastx: %w", err)
			}
			continue
		}
		for len(s) > 0 {
			n := width
			if n > len(s) {
				n = len(s)
			}
			if _, err := fmt.Fprintln(bw, s[:n]); err != nil {
				return fmt.Errorf("fastx: %w", err)
			}
			s = s[n:]
		}
	}
	return bw.Flush()
}

// ReadFastq parses FASTQ records from r (strict four-line records).
func ReadFastq(r io.Reader) ([]Record, error) {
	var out []Record
	err := scanFastq(r, func(name, seq, qual []byte) {
		out = append(out, Record{Name: string(name), Seq: string(seq), Qual: string(qual)})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFastqSeqs parses r exactly as ReadFastq does, with the same checks and
// the same line-numbered errors, but keeps only the sequences: they are
// substrings of one arena string, so no header, quality string or
// per-record allocation outlives the parse. sizeHint, when positive, is the
// byte length of the text r yields (a plain file's size); since every
// sequence is matched by a quality string of its length, half of it bounds
// the arena, which is then allocated once. Zero means unknown (a gzip
// stream) and the arena grows as it fills.
func ReadFastqSeqs(r io.Reader, sizeHint int64) ([]string, error) {
	var arena strings.Builder
	if sizeHint > 0 {
		arena.Grow(int(sizeHint / 2))
	}
	var ends []int
	err := scanFastq(r, func(_, seq, _ []byte) {
		arena.Write(seq)
		ends = append(ends, arena.Len())
	})
	if err != nil {
		return nil, err
	}
	// Cut only once the arena is final: a substring taken before it grew
	// would keep the outgrown buffer alive.
	all := arena.String()
	seqs := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		seqs[i] = all[start:end]
		start = end
	}
	return seqs, nil
}

// scanFastq is the one FASTQ record loop. It reads strict four-line records
// from r and calls record with each record's trimmed name, its sequence and
// its quality once the header, the '+' line and the quality length have
// checked out; the slices are only valid during the call. After an error
// it delivers nothing more and returns the error, naming the line.
func scanFastq(r io.Reader, record func(name, seq, qual []byte)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	next := func() ([]byte, bool) {
		if !sc.Scan() {
			return nil, false
		}
		line++
		return bytes.TrimRight(sc.Bytes(), "\r\n"), true
	}
	// The scanner reuses its buffer for every line, so the header and
	// sequence are copied out before the next two lines are read.
	var name, seq []byte
	for {
		h, ok := next()
		if !ok {
			break
		}
		if len(bytes.TrimSpace(h)) == 0 {
			continue
		}
		if !bytes.HasPrefix(h, []byte("@")) {
			return fmt.Errorf("fastx: line %d: expected @header, got %q", line, h)
		}
		name = append(name[:0], bytes.TrimSpace(h[1:])...)
		s, ok := next()
		if !ok {
			return fmt.Errorf("fastx: line %d: truncated record", line)
		}
		seq = append(seq[:0], s...)
		plus, ok := next()
		if !ok || !bytes.HasPrefix(plus, []byte("+")) {
			return fmt.Errorf("fastx: line %d: expected + separator", line)
		}
		qual, ok := next()
		if !ok {
			return fmt.Errorf("fastx: line %d: missing quality line", line)
		}
		if len(qual) != len(seq) {
			return fmt.Errorf("fastx: line %d: quality length %d != sequence length %d", line, len(qual), len(seq))
		}
		record(name, seq, qual)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("fastx: %w", err)
	}
	return nil
}

// WriteFastq writes records to w; records without quality get a constant
// high-quality string.
func WriteFastq(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		q := rec.Qual
		if q == "" {
			q = strings.Repeat("I", len(rec.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, q); err != nil {
			return fmt.Errorf("fastx: %w", err)
		}
	}
	return bw.Flush()
}

// Open opens path for reading, transparently decompressing when the name
// ends in .gz (the form sequencing archives usually ship in). Closing the
// returned reader closes the underlying file.
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(strings.ToLower(path), ".gz") {
		return f, nil
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fastx: %s: %w", path, err)
	}
	return &gzFile{gz: gz, f: f}, nil
}

// BaseExt returns the lower-cased filename extension with a trailing .gz
// stripped, so callers can dispatch on ".fastq" for "reads.FASTQ.gz".
func BaseExt(path string) string {
	p := strings.ToLower(path)
	p = strings.TrimSuffix(p, ".gz")
	if i := strings.LastIndexByte(p, '.'); i >= 0 {
		return p[i:]
	}
	return ""
}

type gzFile struct {
	gz *gzip.Reader
	f  *os.File
}

func (g *gzFile) Read(p []byte) (int, error) { return g.gz.Read(p) }

func (g *gzFile) Close() error {
	gzErr := g.gz.Close()
	if err := g.f.Close(); err != nil {
		return err
	}
	return gzErr
}

// Seqs extracts just the sequence strings.
func Seqs(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}
