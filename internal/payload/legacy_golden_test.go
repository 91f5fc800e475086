package payload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"safeguard/internal/memctrl"
)

// Goldens recorded from the scripted attack code that the library
// programs and Run replaced (the rowhammer package's Pattern types and
// its controller-driven attack runner), before that code was deleted:
//
//   - testdata/scripted_golden.json: the scripted runner's outcome over
//     TestPayloadScriptedParity's grid;
//   - testdata/library_golden.json: the SHA-256 of each scripted
//     pattern's first 2×period×1000 rows, for every parameter set used in
//     the tree, and the SHA-256 of each library program's canonical
//     Encode() bytes.
//
// The recorder is gone with the code it recorded, so these files are
// fixed oracles: a diff against them is a behaviour change.

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("corrupt golden file %s: %v", name, err)
	}
}

// scriptedRun is one controller-driven run as the scripted runner
// reported it.
type scriptedRun struct {
	Activations         int                            `json:"activations"`
	Stalled             bool                           `json:"stalled"`
	TotalFlips          int                            `json:"totalFlips"`
	FlipsByRow          map[int]int                    `json:"flipsByRow"`
	MitigationRefreshes int                            `json:"mitigationRefreshes"`
	PluginStats         map[string]memctrl.PluginStats `json:"pluginStats"`
	MCStats             memctrl.Stats                  `json:"mcStats"`
	Cycles              int64                          `json:"cycles"`
}

func scriptedRunOf(r Result) scriptedRun {
	return scriptedRun{
		Activations: r.Activations, Stalled: r.Stalled,
		TotalFlips: r.TotalFlips, FlipsByRow: r.FlipsByRow,
		MitigationRefreshes: r.MitigationRefreshes,
		PluginStats:         r.PluginStats, MCStats: r.MCStats, Cycles: r.Cycles,
	}
}

// parityMitigations × parityPrograms is TestPayloadScriptedParity's grid.
var parityMitigations = []string{"none", "para", "trr", "graphene", "blockhammer"}

const parityActs = 3000

func parityPrograms() []*Program {
	return []*Program{
		SingleSided(500, parityActs),
		DoubleSided(500, parityActs),
		ManySided(500, 6, 800, parityActs),
		HalfDouble(500, 8, parityActs),
	}
}

// TestPayloadScriptedParity is the payload-vs-scripted contract: each
// legacy attack pattern, encoded as a DSL program, must reproduce the
// recorded scripted-runner run exactly — same flips (per row), same
// activation and refresh counters, same plugin decisions, same
// controller statistics and cycle count — across every mitigation in the
// registry.
func TestPayloadScriptedParity(t *testing.T) {
	t.Parallel()
	var want map[string]scriptedRun
	readGolden(t, "scripted_golden.json", &want)
	for _, mit := range parityMitigations {
		for _, prog := range parityPrograms() {
			mit, prog := mit, prog
			t.Run(mit+"/"+prog.Name, func(t *testing.T) {
				t.Parallel()
				w, ok := want[mit+"/"+prog.Name]
				if !ok {
					t.Fatal("no recorded scripted run")
				}
				got, err := Run(context.Background(), RunConfig{
					Bank: parityBank(), Mitigation: mit, Seed: 3,
					MaxActivations: parityActs, MaxCycles: 4_000_000,
				}, prog)
				if err != nil {
					t.Fatal(err)
				}
				if g := scriptedRunOf(got); !reflect.DeepEqual(g, w) {
					t.Errorf("diverges from the scripted run:\n got  %+v\n want %+v", g, w)
				}
			})
		}
	}
}

// libraryCases builds every library parameter set used in the tree
// (commands, experiments, examples, tests, perfbench) at a given length.
var libraryCases = []func(acts int) *Program{
	func(n int) *Program { return SingleSided(40, n) },
	func(n int) *Program { return SingleSided(100, n) },
	func(n int) *Program { return SingleSided(500, n) },
	func(n int) *Program { return SingleSided(513, n) },
	func(n int) *Program { return SingleSided(2222, n) },
	func(n int) *Program { return DoubleSided(8, n) },
	func(n int) *Program { return DoubleSided(40, n) },
	func(n int) *Program { return DoubleSided(100, n) },
	func(n int) *Program { return DoubleSided(200, n) },
	func(n int) *Program { return DoubleSided(500, n) },
	func(n int) *Program { return DoubleSided(512, n) },
	func(n int) *Program { return DoubleSided(1000, n) },
	func(n int) *Program { return DoubleSided(2000, n) },
	func(n int) *Program { return DoubleSided(4000, n) },
	func(n int) *Program { return ManySided(40, 6, 600, n) },
	func(n int) *Program { return ManySided(200, 6, 1000, n) },
	func(n int) *Program { return ManySided(500, 6, 800, n) },
	func(n int) *Program { return ManySided(512, 6, 812, n) },
	func(n int) *Program { return ManySided(1200, 12, 2000, n) },
	func(n int) *Program { return ManySided(4000, 12, 6000, n) },
	func(n int) *Program { return ManySided(4000, 16, 6000, n) },
	func(n int) *Program { return HalfDouble(40, 0, n) },
	func(n int) *Program { return HalfDouble(40, 3, n) },
	func(n int) *Program { return HalfDouble(40, 4, n) },
	func(n int) *Program { return HalfDouble(300, 4, n) },
	func(n int) *Program { return HalfDouble(500, 8, n) },
	func(n int) *Program { return HalfDouble(512, 4, n) },
	func(n int) *Program { return HalfDouble(1500, 0, n) },
	func(n int) *Program { return HalfDouble(1500, 680, n) },
	func(n int) *Program { return HalfDouble(1500, 1024, n) },
	func(n int) *Program { return HalfDouble(1500, 1130, n) },
	func(n int) *Program { return HalfDouble(4000, 0, n) },
	func(n int) *Program { return HalfDouble(4000, 680, n) },
	func(n int) *Program { return HalfDouble(4000, 1130, n) },
}

// libraryGolden pins one parameter set: its stream period, the SHA-256
// of the scripted pattern's first StreamRows rows (2×period×1000), and
// the SHA-256 of the library program's Encode() bytes per length.
type libraryGolden struct {
	Period       int               `json:"period"`
	StreamRows   int               `json:"streamRows"`
	StreamSHA256 string            `json:"streamSha256"`
	EncodeSHA256 map[string]string `json:"encodeSha256"`
}

// encodeLengths are the program lengths whose encodings are pinned: a
// short prefix, a remainder-only or remainder-heavy length, two periods
// plus a remainder, and the one- and two-window lengths the pure-model
// runner takes.
func encodeLengths(period int) []int {
	return []int{1, 1000, 2*period + 1, memctrl.ActsPerWindow, 2 * memctrl.ActsPerWindow}
}

// rowHasher hashes a row stream as decimal lines.
type rowHasher struct {
	h   hash.Hash
	buf []byte
	n   int
}

func newRowHasher() *rowHasher { return &rowHasher{h: sha256.New()} }

func (r *rowHasher) add(row int) {
	r.buf = strconv.AppendInt(r.buf[:0], int64(row), 10)
	r.buf = append(r.buf, '\n')
	r.h.Write(r.buf)
	r.n++
}

func (r *rowHasher) hex() string { return hex.EncodeToString(r.h.Sum(nil)) }

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestLibraryStreamsMatchPatterns checks each library program's expansion
// against the recorded scripted-pattern stream: 2×period×1000 rows must
// hash to the recorded SHA-256, and a 1000-act program (remainders) must
// be a prefix of that stream.
func TestLibraryStreamsMatchPatterns(t *testing.T) {
	t.Parallel()
	var want map[string]libraryGolden
	readGolden(t, "library_golden.json", &want)
	if len(want) != len(libraryCases) {
		t.Fatalf("%d recorded parameter sets, %d cases", len(want), len(libraryCases))
	}
	for _, mk := range libraryCases {
		name := mk(1).Name
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: no recorded stream", name)
		}
		prog := mk(w.StreamRows)
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := prog.Acts(); got != int64(w.StreamRows) {
			t.Fatalf("%s: Acts() = %d, want %d", name, got, w.StreamRows)
		}
		h := newRowHasher()
		var head []int
		prog.Walk(func(s Step) bool {
			if !s.IsAct {
				t.Fatalf("%s: library program emitted a NOP", name)
			}
			if h.n < 1000 {
				head = append(head, s.Row)
			}
			h.add(s.Row)
			return true
		})
		if got := h.hex(); got != w.StreamSHA256 {
			t.Fatalf("%s: stream of %d rows hashes to %s, scripted pattern %s", name, h.n, got, w.StreamSHA256)
		}
		i := 0
		mk(1000).Walk(func(s Step) bool {
			if s.Row != head[i] {
				t.Fatalf("%s: 1000-act program step %d activates row %d, stream says %d", name, i, s.Row, head[i])
			}
			i++
			return true
		})
		if i != 1000 {
			t.Fatalf("%s: 1000-act program walked %d acts", name, i)
		}
	}
}

// TestLibraryEncodeGolden pins each library program's canonical encoding
// at several lengths, so a rewrite of the builders must emit the same
// bytes.
func TestLibraryEncodeGolden(t *testing.T) {
	t.Parallel()
	var want map[string]libraryGolden
	readGolden(t, "library_golden.json", &want)
	for _, mk := range libraryCases {
		name := mk(1).Name
		w := want[name]
		for _, n := range encodeLengths(w.Period) {
			if got := sha256Hex(mk(n).Encode()); got != w.EncodeSHA256[strconv.Itoa(n)] {
				t.Errorf("%s at %d acts: encoding hashes to %s, recorded %s", name, n, got, w.EncodeSHA256[strconv.Itoa(n)])
			}
		}
	}
}
