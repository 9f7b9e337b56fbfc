package fastx

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestFastaRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "ctg1 length=10", Seq: "ACGTACGTAC"},
		{Name: "ctg2", Seq: strings.Repeat("GATTACA", 30)},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs, 60); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		if got[i].Name != recs[i].Name || got[i].Seq != recs[i].Seq {
			t.Errorf("record %d mismatch: %+v", i, got[i])
		}
	}
}

func TestFastaNoWrap(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFasta(&buf, []Record{{Name: "x", Seq: "ACGT"}}, 0); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ">x\nACGT\n" {
		t.Errorf("output %q", buf.String())
	}
}

func TestFastaMultiline(t *testing.T) {
	in := ">a\nACGT\nTTTT\n\n>b\nGG\n"
	recs, err := ReadFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != "ACGTTTTT" || recs[1].Seq != "GG" {
		t.Errorf("parsed %+v", recs)
	}
}

func TestFastaErrors(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header accepted")
	}
}

func TestFastqRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "r1", Seq: "ACGTN", Qual: "IIIII"},
		{Name: "r2", Seq: "GG", Qual: "!!"},
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestFastqDefaultQuality(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFastq(&buf, []Record{{Name: "r", Seq: "ACG"}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Qual != "III" {
		t.Errorf("qual = %q", got[0].Qual)
	}
}

func TestFastqErrors(t *testing.T) {
	for _, in := range []string{
		"ACGT\nACGT\n+\nIIII\n", // missing @
		"@r\nACGT\nIIII\n",      // missing +
		"@r\nACGT\n+\nII\n",     // quality length mismatch
		"@r\nACGT\n+\n",         // truncated
	} {
		if _, err := ReadFastq(strings.NewReader(in)); err == nil {
			t.Errorf("malformed FASTQ accepted: %q", in)
		}
	}
}

// TestReadFastqSeqs pins the sequence-only reader to ReadFastq: the same
// sequences for a valid file (whatever the size hint, which only presizes
// the arena) and the same error text for every malformed one.
func TestReadFastqSeqs(t *testing.T) {
	valid := "@r1 desc\nACGTN\n+r1\nIIIII\n\n@r2\r\nGG\r\n+\r\n!!\r\n@r3\n\n+\n\n"
	for _, hint := range []int64{0, 1, int64(len(valid)), 1 << 20} {
		got, err := ReadFastqSeqs(strings.NewReader(valid), hint)
		if err != nil {
			t.Fatalf("hint %d: %v", hint, err)
		}
		if want := []string{"ACGTN", "GG", ""}; !slices.Equal(got, want) {
			t.Errorf("hint %d: sequences %q, want %q", hint, got, want)
		}
	}
	if got, err := ReadFastqSeqs(strings.NewReader(""), 0); err != nil || len(got) != 0 {
		t.Errorf("empty input: %q, %v", got, err)
	}
	for _, in := range []string{
		"ACGT\nACGT\n+\nIIII\n",
		"@r\nACGT\nIIII\n",
		"@r\nACGT\n+\nII\n",
		"@r\nACGT\n+\n",
		"@r\nACGT\n",
		"@r1\nAC\n+\nII\n@r2\nACGT\n+\nIII\n",
	} {
		_, want := ReadFastq(strings.NewReader(in))
		got, err := ReadFastqSeqs(strings.NewReader(in), int64(len(in)))
		if want == nil || err == nil || err.Error() != want.Error() || got != nil {
			t.Errorf("%q: sequence reader returned %q, %v; ReadFastq's error is %v", in, got, err, want)
		}
	}
}

func TestSeqs(t *testing.T) {
	s := Seqs([]Record{{Seq: "A"}, {Seq: "CG"}})
	if len(s) != 2 || s[0] != "A" || s[1] != "CG" {
		t.Errorf("Seqs = %v", s)
	}
}

func TestOpenPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "reads.fastq")
	const content = "@r1\nACGT\n+\nIIII\n"
	if err := os.WriteFile(plain, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	zipped := filepath.Join(dir, "reads.fastq.gz")
	f, err := os.Create(zipped)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, zipped} {
		r, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs, err := ReadFastq(r)
		if cerr := r.Close(); cerr != nil {
			t.Fatalf("%s: close: %v", path, cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(recs) != 1 || recs[0].Seq != "ACGT" {
			t.Errorf("%s: records = %v", path, recs)
		}
	}
}

func TestOpenRejectsCorruptGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.fa.gz")
	if err := os.WriteFile(path, []byte("not gzip data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.fa")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBaseExt(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"reads.fastq", ".fastq"},
		{"reads.FASTQ.gz", ".fastq"},
		{"a/b/ref.fa.GZ", ".fa"},
		{"noext", ""},
		{"reads.gz", ""},
	} {
		if got := BaseExt(c.in); got != c.want {
			t.Errorf("BaseExt(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
