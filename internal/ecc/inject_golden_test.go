package ecc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"safeguard/internal/bits"
)

// Injector goldens: every fault injector is run over a fixed grid of
// device/beat/pin arguments on each goldenLines() line, and the SHA-256 of
// the concatenated (line, meta) outputs is pinned in
// testdata/inject_golden.json together with the rng's next Uint64() after
// the sequence. A changed corruption shows as a hash diff; a changed number
// of rng draws shows as a next-draw diff. Regenerate intentionally with
//
//	go test ./internal/ecc -run TestInjectGolden -update

// injectGoldenMeta is the metadata word every injection starts from.
const injectGoldenMeta = 0x0F1E2D3C4B5A6978

// injectGoldenCase is one injector over its argument grid. run applies
// every grid point to a fresh copy of (line, meta) and hands each result
// to emit.
type injectGoldenCase struct {
	name string
	run  func(line bits.Line, rng *rand.Rand, emit func(bits.Line, uint64))
}

func injectGoldenCases() []injectGoldenCase {
	perChip := func(chips int, inject func(*bits.Line, *uint64, int, *rand.Rand)) func(bits.Line, *rand.Rand, func(bits.Line, uint64)) {
		return func(line bits.Line, rng *rand.Rand, emit func(bits.Line, uint64)) {
			for chip := 0; chip < chips; chip++ {
				l, m := line, uint64(injectGoldenMeta)
				inject(&l, &m, chip, rng)
				emit(l, m)
			}
		}
	}
	perChipLane := func(inject func(*bits.Line, *uint64, int, int, *rand.Rand)) func(bits.Line, *rand.Rand, func(bits.Line, uint64)) {
		return func(line bits.Line, rng *rand.Rand, emit func(bits.Line, uint64)) {
			for chip := 0; chip < 9; chip++ {
				for k := 0; k < 8; k++ {
					l, m := line, uint64(injectGoldenMeta)
					inject(&l, &m, chip, k, rng)
					emit(l, m)
				}
			}
		}
	}
	multiChip := func(n int) func(bits.Line, *rand.Rand, func(bits.Line, uint64)) {
		return func(line bits.Line, rng *rand.Rand, emit func(bits.Line, uint64)) {
			l, m := line, uint64(injectGoldenMeta)
			InjectMultiChipFaultX4(&l, &m, n, rng)
			emit(l, m)
		}
	}
	randomFlips := func(n int) func(bits.Line, *rand.Rand, func(bits.Line, uint64)) {
		return func(line bits.Line, rng *rand.Rand, emit func(bits.Line, uint64)) {
			l := line
			InjectRandomFlips(&l, n, rng)
			emit(l, injectGoldenMeta)
		}
	}
	return []injectGoldenCase{
		{"word-x8", perChipLane(InjectWordFaultX8)},
		{"column-x8", perChipLane(InjectColumnFaultX8)},
		{"chip-x8", perChip(9, InjectChipFaultX8)},
		{"chip-x4", perChip(ChipkillChips, InjectChipFaultX4)},
		{"chip-chipkill-rs", perChip(ChipkillChips, InjectChipFaultChipkillRS)},
		{"multichip-x4-n2", multiChip(2)},
		{"multichip-x4-n3", multiChip(3)},
		{"random-flips-n1", randomFlips(1)},
		{"random-flips-n8", randomFlips(8)},
	}
}

// injectGoldenRecord is what is pinned per (injector, line).
type injectGoldenRecord struct {
	SHA256   string `json:"sha256"`
	NextDraw string `json:"nextDraw"`
}

func computeInjectGolden() map[string][]injectGoldenRecord {
	out := make(map[string][]injectGoldenRecord)
	for _, c := range injectGoldenCases() {
		for li, line := range goldenLines() {
			rng := rand.New(rand.NewPCG(0x5AFE, uint64(li)))
			h := sha256.New()
			c.run(line, rng, func(l bits.Line, m uint64) { hashLineMeta(h, l, m) })
			out[c.name] = append(out[c.name], injectGoldenRecord{
				SHA256:   hex.EncodeToString(h.Sum(nil)),
				NextDraw: fmt.Sprintf("%#016x", rng.Uint64()),
			})
		}
	}
	return out
}

// hashLineMeta appends one (line, meta) pair to h: the eight line words,
// then the metadata word, each little-endian.
func hashLineMeta(h hash.Hash, l bits.Line, m uint64) {
	var buf [8 * (bits.LineWords + 1)]byte
	for w := 0; w < bits.LineWords; w++ {
		binary.LittleEndian.PutUint64(buf[8*w:], l.Word(w))
	}
	binary.LittleEndian.PutUint64(buf[8*bits.LineWords:], m)
	h.Write(buf[:])
}

func TestInjectGolden(t *testing.T) {
	t.Parallel()
	got := computeInjectGolden()
	path := filepath.Join("testdata", "inject_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want map[string][]injectGoldenRecord
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file covers %d injectors, computed %d", len(want), len(got))
	}
	for name, wantRecs := range want {
		gotRecs, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not computed", name)
			continue
		}
		if len(gotRecs) != len(wantRecs) {
			t.Errorf("%s: %d lines, want %d", name, len(gotRecs), len(wantRecs))
			continue
		}
		for li, w := range wantRecs {
			if g := gotRecs[li]; g != w {
				t.Errorf("%s line %d: outputs %s next draw %s, golden %s next draw %s",
					name, li, g.SHA256, g.NextDraw, w.SHA256, w.NextDraw)
			}
		}
	}
}
