package faultmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Sampler goldens: each (geometry, FIT scale) case draws a fixed number of
// module lifetimes from a fixed seed, and the SHA-256 of the concatenated
// fault sequence is pinned in testdata/sample_golden.json together with
// the rng's next Uint64() after the last module. A changed fault shows as
// a hash diff; a changed number of rng draws shows as a next-draw diff.
// Regenerate intentionally with
//
//	go test ./internal/faultmodel -run TestSampleLifetimeGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// sampleGoldenModules is the lifetimes drawn per case.
const sampleGoldenModules = 4000

// sampleGoldenRecord is one case's pinned outcome. Faults is the total
// fault count, kept beside the hash so a diff is readable.
type sampleGoldenRecord struct {
	Faults   int    `json:"faults"`
	SHA256   string `json:"sha256"`
	NextDraw string `json:"next_draw"`
}

func computeSampleGolden() map[string]sampleGoldenRecord {
	geoms := []struct {
		name string
		geom ModuleGeometry
	}{{"x8", X8SECDED16GB}, {"x4", X4Chipkill16GB}}
	hours := 7 * HoursPerYear
	out := make(map[string]sampleGoldenRecord)
	for gi, g := range geoms {
		for _, scale := range []float64{1, 10, 50} {
			s := NewSampler(g.geom, SridharanFITRates, scale, hours)
			rng := NewPCG(uint64(gi)+1, uint64(scale))
			h := sha256.New()
			total := 0
			var faults []Fault
			for m := 0; m < sampleGoldenModules; m++ {
				faults = s.SampleLifetime(rng, faults[:0])
				hashUint(h, uint64(len(faults)))
				for _, f := range faults {
					hashFault(h, f)
				}
				total += len(faults)
			}
			out[fmt.Sprintf("%s/fit%g", g.name, scale)] = sampleGoldenRecord{
				Faults:   total,
				SHA256:   hex.EncodeToString(h.Sum(nil)),
				NextDraw: fmt.Sprintf("%#016x", rng.Uint64()),
			}
		}
	}
	return out
}

// hashFault appends every field of f to h, little-endian, with Hours as
// its IEEE-754 bits so the pin is exact.
func hashFault(h hash.Hash, f Fault) {
	transient := uint64(0)
	if f.Transient {
		transient = 1
	}
	for _, v := range []uint64{
		uint64(f.Mode), transient, math.Float64bits(f.Hours),
		uint64(int64(f.Rank)), uint64(int64(f.Chip)), uint64(int64(f.Bank)),
		uint64(int64(f.Row)), uint64(int64(f.Col)),
	} {
		hashUint(h, v)
	}
}

func hashUint(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func TestSampleLifetimeGolden(t *testing.T) {
	t.Parallel()
	got := computeSampleGolden()
	path := filepath.Join("testdata", "sample_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]sampleGoldenRecord
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file covers %d cases, computed %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not computed", name)
			continue
		}
		if g != w {
			t.Errorf("%s: %d faults %s next draw %s, golden %d faults %s next draw %s",
				name, g.Faults, g.SHA256, g.NextDraw, w.Faults, w.SHA256, w.NextDraw)
		}
	}
}
