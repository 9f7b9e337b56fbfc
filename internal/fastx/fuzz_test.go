package fastx

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadFastq feeds the assembler's only user-supplied input format to the
// parser four ways — plain; gzipped as two concatenated members and read
// through Open; that gzip stream cut short mid-member; and the raw bytes
// posing as a .gz file — and requires, every time, no panic and either an
// error or a record list no larger than the input it was parsed from.
func FuzzReadFastq(f *testing.F) {
	f.Add([]byte("@r1\nACGT\n+\nIIII\n@r2 desc\nNNAC\n+r2\n!!!!\n"), uint16(9))
	f.Add([]byte("@r1\r\nACGT\r\n+\r\nIIII\r\n\r\n"), uint16(30))
	f.Add([]byte("@r1\nACGT\n+\nIII\n"), uint16(0))      // quality too short
	f.Add([]byte("@r1\nACGT\n+\n"), uint16(3))           // truncated record
	f.Add([]byte(">fasta\nACGT\n"), uint16(1))           // wrong format
	f.Add([]byte("\x1f\x8b\x08\x00\x00\x00"), uint16(2)) // a gzip header and nothing else
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		bounded := func(what string, recs []Record, err error, limit int) {
			if err != nil {
				if recs != nil {
					t.Fatalf("%s: records returned alongside error %v", what, err)
				}
				return
			}
			size := 0
			for _, r := range recs {
				size += len(r.Name) + len(r.Seq) + len(r.Qual)
			}
			if len(recs) > limit || size > limit {
				t.Fatalf("%s: %d records holding %d bytes from %d input bytes", what, len(recs), size, limit)
			}
		}
		plain, plainErr := ReadFastq(bytes.NewReader(data))
		bounded("plain", plain, plainErr, len(data))

		// Through Open, as a user's reads.fastq.gz would arrive.
		viaOpen := func(name string, content []byte) ([]Record, error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(path)
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return ReadFastq(r)
		}
		var zipped bytes.Buffer
		for _, member := range [][]byte{data[:len(data)/2], data[len(data)/2:]} {
			zw := gzip.NewWriter(&zipped)
			zw.Write(member)
			zw.Close()
		}
		whole, wholeErr := viaOpen("whole.fastq.gz", zipped.Bytes())
		if (wholeErr == nil) != (plainErr == nil) || !reflect.DeepEqual(whole, plain) {
			t.Fatalf("gzip round trip changed the parse: %d records, err %v; plain %d records, err %v",
				len(whole), wholeErr, len(plain), plainErr)
		}
		// Cut mid-member this is an error; cut on the member boundary it is
		// a valid shorter file. Either way it stays within the input.
		short := zipped.Bytes()[:int(cut)%zipped.Len()]
		recs, err := viaOpen("short.fastq.gz", short)
		bounded("truncated gzip", recs, err, len(data))
		// Raw fuzz bytes as a .gz: may inflate, so only the contract that
		// errors carry no records is checked.
		recs, err = viaOpen("raw.fastq.gz", data)
		bounded("raw gzip", recs, err, int(^uint(0)>>1))
	})
}
