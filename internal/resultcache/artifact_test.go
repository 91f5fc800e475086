package resultcache

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fakePerfResult builds a syntactically valid PerfWire payload without
// running a simulation.
func fakePerfResult(t testing.TB) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(PerfWire{
		Schemes: []string{"SafeGuard"},
		Rows: []PerfRowWire{{
			Workload: "leela", BaseIPC: 2.5,
			Slowdown: map[string]float64{"SafeGuard": 0.007},
		}},
		Average: map[string]float64{"SafeGuard": 0.007},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestArtifactRoundTrip(t *testing.T) {
	t.Parallel()
	req := tinyPerf()
	art, err := NewArtifact(req, fakePerfResult(t))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("Encode is not byte-stable")
	}
	back, err := ReadArtifact(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	// The indenting encoder reformats embedded RawMessage whitespace, so
	// byte-identity is defined over Encode output: a decoded artifact
	// must re-encode to the exact bytes it was read from.
	reenc, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, enc) {
		t.Fatal("decode+re-encode changed the artifact bytes")
	}
	var r1, r2 bytes.Buffer
	if err := json.Compact(&r1, back.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&r2, art.Result); err != nil {
		t.Fatal(err)
	}
	if back.Hash != art.Hash || r1.String() != r2.String() {
		t.Fatalf("round trip changed the artifact: %+v vs %+v", back, art)
	}
	dreq, err := back.DecodeRequest()
	if err != nil {
		t.Fatal(err)
	}
	h, err := dreq.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != art.Hash {
		t.Fatalf("embedded request re-hashes to %s, artifact says %s", h, art.Hash)
	}
}

func TestNewArtifactRejectsBadResult(t *testing.T) {
	t.Parallel()
	if _, err := NewArtifact(tinyPerf(), nil); err == nil {
		t.Fatal("empty result accepted")
	}
	// A rel payload under a perf request is a shape mismatch.
	relRaw, err := json.Marshal(RelWire{Results: []RelResultWire{{Scheme: "SECDED"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArtifact(tinyPerf(), relRaw); err == nil {
		t.Fatal("rel wire accepted for a perf request")
	}
}

func TestReadArtifactRejections(t *testing.T) {
	t.Parallel()
	art, err := NewArtifact(tinyPerf(), fakePerfResult(t))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	good := string(enc)

	cases := map[string]string{
		"not json":       "][",
		"wrong schema":   strings.Replace(good, Schema, "sgserve/999", 1),
		"unknown field":  strings.Replace(good, `"hash"`, `"extra": 1, "hash"`, 1),
		"tampered req":   strings.Replace(good, `"leela"`, `"mcf"`, 1),
		"tampered hash":  strings.Replace(good, art.Hash, strings.Repeat("0", HashBytes), 1),
		"gutted result":  strings.Replace(good, `"base_ipc"`, `"base_ipz"`, 1),
		"missing result": strings.Replace(good, `"result"`, `"resul"`, 1),
	}
	for name, body := range cases {
		if _, err := ReadArtifact(strings.NewReader(body)); err == nil {
			t.Errorf("%s: ReadArtifact accepted corrupt artifact", name)
		}
	}
	if _, err := ReadArtifact(strings.NewReader(good)); err != nil {
		t.Fatalf("control: good artifact rejected: %v", err)
	}
}
