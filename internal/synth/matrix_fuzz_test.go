package synth

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseMatrix is the synth-matrix/1 decoder's fuzz target: parsing
// never panics, and an accepted matrix canonicalizes stably — its
// EncodeJSON bytes parse back and re-encode to the same bytes, so a
// baseline file or a stored artifact always means one matrix.
func FuzzParseMatrix(f *testing.F) {
	baseline, err := os.ReadFile(filepath.Join("..", "..", "testdata", "synth_baseline.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(baseline)
	f.Add([]byte(`{"schema":"synth-matrix/1","cells":[{"mitigation":"trr","payload":"payload/1 x\nACT 1\n","peak_disturbance":-0}]}`))
	f.Add([]byte(`{"schema":"synth-matrix/0"}`))
	f.Add([]byte(`{"schema":"synth-matrix/1","extra":1}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ParseMatrix(in)
		if err != nil {
			return
		}
		enc, err := m.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted matrix does not encode: %v", err)
		}
		back, err := ParseMatrix(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not re-parse: %v\nencoding: %s", err, enc)
		}
		enc2, err := back.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding unstable:\n%s\n%s", enc, enc2)
		}
	})
}
