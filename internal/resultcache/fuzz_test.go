package resultcache

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// hashPinRequests are TestHashPins's requests, as fresh (unnormalized)
// values.
func hashPinRequests() []*Request {
	explicitEngine := tinySynth()
	explicitEngine.Synth.Engine = "event"
	return []*Request{{Kind: KindSynth}, tinySynth(), explicitEngine, tinyPerf(), tinyRel()}
}

// FuzzParseRequest feeds arbitrary bytes to the service's request parser.
// It must never panic, and an accepted request's canonical form is a fixed
// point: CanonicalJSON re-parses to the same bytes and the same Hash, so a
// stored identity always survives a round trip through the wire.
func FuzzParseRequest(f *testing.F) {
	for _, req := range hashPinRequests() {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, body := range yearsOutOfRange {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon, err := req.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted request does not canonicalize: %v", err)
		}
		hash, err := req.Hash()
		if err != nil {
			t.Fatalf("accepted request does not hash: %v", err)
		}
		back, err := ParseRequest(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", canon, err)
		}
		canon2, err := back.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon2, canon) {
			t.Fatalf("canonical form not a fixed point:\n%s\nvs\n%s", canon, canon2)
		}
		if hash2, err := back.Hash(); err != nil || hash2 != hash {
			t.Fatalf("re-parsed request hashes to %s (%v), want %s", hash2, err, hash)
		}
	})
}

// FuzzReadArtifact feeds arbitrary bytes to the on-disk artifact reader.
// It must never panic, and an accepted artifact re-encodes to bytes that
// read back and encode identically — what lets a cache hit be served
// byte-for-byte.
func FuzzReadArtifact(f *testing.F) {
	relRaw, err := json.Marshal(RelWire{Results: []RelResultWire{{Scheme: "SECDED"}}})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(req *Request, raw json.RawMessage) {
		art, err := NewArtifact(req, raw)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := art.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	seed(tinyPerf(), fakePerfResult(f))
	seed(tinyRel(), relRaw)
	for _, req := range []*Request{tinyWarmRequest(), tinySynth()} {
		raw, err := req.Execute(context.Background(), nil)
		if err != nil {
			f.Fatal(err)
		}
		seed(req, raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := art.Encode()
		if err != nil {
			t.Fatalf("accepted artifact does not encode: %v", err)
		}
		back, err := ReadArtifact(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded artifact rejected: %v", err)
		}
		enc2, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc2, enc) {
			t.Fatalf("artifact encoding not stable:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
