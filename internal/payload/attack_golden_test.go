package payload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"safeguard/internal/ecc"
	"safeguard/internal/mac"
	"safeguard/internal/memctrl"
	"safeguard/internal/rowhammer"
)

// Attack goldens: the outcome of every mitigation over a frozen matrix of
// attack scenarios (flip counts and positions, activations, mitigation
// refreshes, throttled ACTs, and what SECDED and both SafeGuard designs do
// with the damage), plus the decision sequence of each mitigation over a
// fixed mixed activation stream, are pinned in
// testdata/attack_golden.json. Any change to a mitigation's algorithm, the
// attack runner's ACT/REF cadence, or the bank's disturbance model shows
// up as a diff. Regenerate intentionally with
//
//	go test ./internal/payload -run TestAttackGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

func testConfig() rowhammer.Config {
	cfg := rowhammer.DefaultConfig()
	cfg.Rows = 4096
	cfg.Seed = 7
	return cfg
}

func testKeyed() *mac.Keyed {
	var key [16]byte
	for i := range key {
		key[i] = byte(0x40 + i)
	}
	return mac.NewKeyed(key)
}

// windows is the program length of an n-window pure-model run.
func windows(n int) int { return n * memctrl.ActsPerWindow }

type goldenScenario struct {
	name      string
	cfg       rowhammer.Config
	mit       string // registry name, sized for threshold
	threshold int
	seed      uint64 // PARA's coin-flip seed
	prog      *Program
	reference int
}

// goldenScenarios is the frozen matrix: Figure 1b's four breakthrough
// studies at six seeds, BlockHammer sized for the module and for an older
// one against every pattern over one and two windows, the mitigation
// ablation pairs, and multi-window runs that cross several window
// rotations.
func goldenScenarios() []goldenScenario {
	var out []goldenScenario

	const victim = 4000
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := rowhammer.DefaultConfig()
		cfg.Rows = 8192
		cfg.Seed = seed
		cfg.LinesPerRow = 16
		cfg.VulnerableCellsPerRow = 256
		cfg.FlipsPerCrossing = 16
		th := cfg.Threshold
		out = append(out,
			goldenScenario{fmt.Sprintf("fig1b/trrespass-trr/seed%d", seed), cfg, "trr", th, seed,
				ManySided(victim, 12, 6000, windows(2)), victim - 1},
			goldenScenario{fmt.Sprintf("fig1b/halfdouble-para/seed%d", seed), cfg, "para", th, seed,
				HalfDouble(victim, 0, windows(2)), victim + 2},
			goldenScenario{fmt.Sprintf("fig1b/halfdouble-graphene/seed%d", seed), cfg, "graphene", th, seed,
				HalfDouble(victim, 680, windows(2)), victim + 2},
			goldenScenario{fmt.Sprintf("fig1b/halfdouble-trr/seed%d", seed), cfg, "trr", th, seed,
				HalfDouble(victim, 1130, windows(2)), victim + 2},
		)
	}

	bhCfg := rowhammer.DefaultConfig()
	bhCfg.Rows = 8192
	bhCfg.Seed = 17
	bhPrograms := []struct {
		name string
		mk   func(acts int) *Program
	}{
		{"single", func(n int) *Program { return SingleSided(2222, n) }},
		{"double", func(n int) *Program { return DoubleSided(victim, n) }},
		{"trrespass", func(n int) *Program { return ManySided(victim, 12, 6000, n) }},
		{"halfdouble", func(n int) *Program { return HalfDouble(victim, 1130, n) }},
	}
	for _, sizing := range []struct {
		name      string
		threshold int
	}{{"sized", bhCfg.Threshold}, {"undersized", 3 * bhCfg.Threshold}} {
		for _, w := range []int{1, 2} {
			for _, p := range bhPrograms {
				out = append(out, goldenScenario{
					fmt.Sprintf("blockhammer/%s/%s/w%d", sizing.name, p.name, w),
					bhCfg, "blockhammer", sizing.threshold, 0, p.mk(windows(w)), victim,
				})
			}
		}
	}

	abCfg := rowhammer.DefaultConfig()
	abCfg.Rows = 8192
	abCfg.Seed = 13
	out = append(out,
		goldenScenario{"ablation/none-double", abCfg, "none", abCfg.Threshold, 13,
			DoubleSided(victim, windows(1)), victim},
		goldenScenario{"ablation/trr-trrespass", abCfg, "trr", abCfg.Threshold, 13,
			ManySided(victim, 12, 6000, windows(1)), victim - 1},
		goldenScenario{"ablation/para-halfdouble", abCfg, "para", abCfg.Threshold, 13,
			HalfDouble(victim, 0, windows(1)), victim + 2},
		goldenScenario{"ablation/graphene-halfdouble", abCfg, "graphene", abCfg.Threshold, 13,
			HalfDouble(victim, 680, windows(1)), victim + 2},
	)

	mwCfg := testConfig()
	out = append(out,
		goldenScenario{"multiwindow/trr-trrespass-w4", mwCfg, "trr", mwCfg.Threshold, 0,
			ManySided(1200, 12, 2000, windows(4)), 1199},
		goldenScenario{"multiwindow/para-halfdouble-w3", mwCfg, "para", mwCfg.Threshold, 2,
			HalfDouble(1500, 0, windows(3)), 1502},
		goldenScenario{"multiwindow/graphene-halfdouble-w3", mwCfg, "graphene", mwCfg.Threshold, 0,
			HalfDouble(1500, 680, windows(3)), 1502},
		goldenScenario{"multiwindow/blockhammer-double-w4", mwCfg, "blockhammer", mwCfg.Threshold, 0,
			DoubleSided(1000, windows(4)), 1000},
	)
	return out
}

// goldenMitigation builds a mitigation plugin by registry name.
func goldenMitigation(name string, threshold int, seed uint64) memctrl.Plugin {
	mit, err := memctrl.NewMitigationPlugin(name, threshold, seed)
	if err != nil {
		panic(err)
	}
	return mit
}

type goldenAttack struct {
	TotalFlips          int                          `json:"totalFlips"`
	Activations         int                          `json:"activations"`
	MitigationRefreshes int                          `json:"mitigationRefreshes"`
	Throttled           int                          `json:"throttled"`
	FlipsByRow          map[int]int                  `json:"flipsByRow"`
	FlipsByDistance     map[int]int                  `json:"flipsByDistance"`
	FlipListSHA256      string                       `json:"flipListSha256"`
	Detection           []rowhammer.DetectionOutcome `json:"detection"`
}

// goldenStream is one mitigation's decision sequence over the mixed
// stream: the victim rows it refreshed, in order, or for BlockHammer the
// allow (1) / deny (0) bit of every ACT.
type goldenStream struct {
	Decisions int    `json:"decisions"`
	SHA256    string `json:"sha256"`
}

type goldenFile struct {
	Attacks map[string]goldenAttack `json:"attacks"`
	Streams map[string]goldenStream `json:"streams"`
}

func runGoldenScenario(sc goldenScenario) goldenAttack {
	b := rowhammer.NewBank(sc.cfg)
	mit := goldenMitigation(sc.mit, sc.threshold, sc.seed)
	res, err := RunAttackAround(b, mit, sc.prog, sc.reference)
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	for _, f := range b.Flips() {
		fmt.Fprintf(h, "%d,%d,%d\n", f.Row, f.Line, f.Bit)
	}
	return goldenAttack{
		TotalFlips:          res.TotalFlips,
		Activations:         res.Activations,
		MitigationRefreshes: res.MitigationRefreshes,
		Throttled:           res.Throttled,
		FlipsByRow:          res.FlipsByRow,
		FlipsByDistance:     res.FlipsByDistance,
		FlipListSHA256:      hex.EncodeToString(h.Sum(nil)),
		Detection: []rowhammer.DetectionOutcome{
			rowhammer.EvaluateDetection(b, ecc.NewSECDED()),
			rowhammer.EvaluateDetection(b, ecc.NewSafeGuardSECDED(testKeyed())),
			rowhammer.EvaluateDetection(b, ecc.NewSafeGuardChipkill(testKeyed())),
		},
	}
}

const (
	streamRows      = 8192
	streamThreshold = 1000
	// streamActs stays under one refresh window.
	streamActs = 300_000
)

// mixedStream yields a deterministic act stream: double-sided hammering
// of rows 3999/4001 interleaved with random background rows, so samplers
// see both hot aggressors and table churn.
func mixedStream(seed uint64) func() int {
	rng := rand.New(rand.NewPCG(seed, 1))
	flip := false
	return func() int {
		if rng.Float64() < 0.5 {
			flip = !flip
			if flip {
				return 3999
			}
			return 4001
		}
		return rng.IntN(streamRows)
	}
}

func hashInts(xs []int) goldenStream {
	h := sha256.New()
	for _, x := range xs {
		fmt.Fprintf(h, "%d\n", x)
	}
	return goldenStream{Decisions: len(xs), SHA256: hex.EncodeToString(h.Sum(nil))}
}

// recordingSink is a VRR sink that records the victim rows in range of
// the stream's bank.
type recordingSink struct{ rows []int }

func (s *recordingSink) EnqueueVRR(rank, bank, row int) bool {
	if row < 0 || row >= streamRows {
		return false
	}
	s.rows = append(s.rows, row)
	return true
}

// streamDecisions replays the mixed stream through a mitigation with a REF
// every ActsPerWindow/REFsPerWindow acts and returns its decisions.
func streamDecisions(mit memctrl.Plugin) []int {
	next := mixedStream(7)
	if gate, ok := mit.(memctrl.ActGate); ok {
		var allowed []int
		for i := 0; i < streamActs; i++ {
			row := next()
			if !gate.AllowAct(0, 0, row, int64(i)) {
				allowed = append(allowed, 0)
				continue
			}
			allowed = append(allowed, 1)
			mit.OnCommand(memctrl.CmdACT, 0, 0, row, int64(i))
		}
		return allowed
	}
	sink := &recordingSink{}
	mit.(memctrl.SinkBinder).BindSink(sink)
	refEvery := memctrl.ActsPerWindow / memctrl.REFsPerWindow
	for i := 0; i < streamActs; i++ {
		mit.OnCommand(memctrl.CmdACT, 0, 0, next(), int64(i))
		if i%refEvery == refEvery-1 {
			mit.OnCommand(memctrl.CmdREF, 0, -1, -1, int64(i))
		}
	}
	return sink.rows
}

func runGoldenStream(name string) goldenStream {
	return hashInts(streamDecisions(goldenMitigation(name, streamThreshold, 31)))
}

func computeAttackGolden() goldenFile {
	scenarios := goldenScenarios()
	got := goldenFile{
		Attacks: make(map[string]goldenAttack, len(scenarios)),
		Streams: make(map[string]goldenStream),
	}
	type done struct {
		name string
		res  goldenAttack
	}
	// Two workers: the scenarios are independent and each is CPU-bound.
	work := make(chan goldenScenario)
	results := make(chan done)
	for w := 0; w < 2; w++ {
		go func() {
			for sc := range work {
				results <- done{sc.name, runGoldenScenario(sc)}
			}
		}()
	}
	go func() {
		for _, sc := range scenarios {
			work <- sc
		}
		close(work)
	}()
	for range scenarios {
		d := <-results
		got.Attacks[d.name] = d.res
	}
	for _, name := range []string{"para", "trr", "graphene", "blockhammer"} {
		got.Streams[name] = runGoldenStream(name)
	}
	return got
}

func TestAttackGolden(t *testing.T) {
	t.Parallel()
	got := computeAttackGolden()
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", "attack_golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	wantBlob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(blob, wantBlob) {
		return
	}
	var want goldenFile
	if err := json.Unmarshal(wantBlob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	for name, w := range want.Attacks {
		if g, ok := got.Attacks[name]; !ok {
			t.Errorf("attack %s: in golden file but not computed", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("attack %s:\n got  %+v\n want %+v", name, g, w)
		}
	}
	for name, w := range want.Streams {
		if g := got.Streams[name]; g != w {
			t.Errorf("stream %s: got %+v, want %+v", name, g, w)
		}
	}
	t.Fatalf("computed goldens differ from %s (%d attacks and %d streams computed, %d and %d pinned)",
		path, len(got.Attacks), len(got.Streams), len(want.Attacks), len(want.Streams))
}

// The plugin parity tests check each plugin's decision sequence over the
// mixed stream against the one the standalone oracle made over the same
// stream, recorded in the golden file before the oracles were deleted:
// the victim rows refreshed, in order, or BlockHammer's allow/deny bits.

// oracleStream reads the oracle's recorded decisions for one mitigation.
func oracleStream(t *testing.T, name string) goldenStream {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "attack_golden.json"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	w, ok := want.Streams[name]
	if !ok {
		t.Fatalf("golden file has no %s stream", name)
	}
	return w
}

func assertRefreshParity(t *testing.T, name string) {
	t.Helper()
	rows := streamDecisions(goldenMitigation(name, streamThreshold, 31))
	if len(rows) == 0 {
		t.Fatalf("%s made no refresh decisions; the stream is too weak to test parity", name)
	}
	if got, want := hashInts(rows), oracleStream(t, name); got != want {
		t.Fatalf("%s diverges from the oracle: plugin %+v, oracle %+v", name, got, want)
	}
}

func TestPARAPluginParity(t *testing.T) {
	t.Parallel()
	assertRefreshParity(t, "para")
}

func TestTRRPluginParity(t *testing.T) {
	t.Parallel()
	assertRefreshParity(t, "trr")
}

func TestGraphenePluginParity(t *testing.T) {
	t.Parallel()
	assertRefreshParity(t, "graphene")
}

// TestBlockHammerPluginParity compares the allow/deny sequence instead of
// refresh rows: BlockHammer never refreshes, it throttles.
func TestBlockHammerPluginParity(t *testing.T) {
	t.Parallel()
	plug := memctrl.NewBlockHammerPlugin(streamThreshold)
	if _, ok := memctrl.Plugin(plug).(memctrl.SinkBinder); ok {
		t.Fatal("BlockHammer binds a VRR sink; it must never refresh")
	}
	allowed := streamDecisions(plug)
	denied := 0
	for _, a := range allowed {
		if a == 0 {
			denied++
		}
	}
	if denied == 0 {
		t.Fatal("stream never hit BlockHammer's cap; parity untested")
	}
	if got := plug.DrainStats()["throttled"]; int(got) != denied {
		t.Fatalf("plugin counted %v throttled ACTs, %d denied", got, denied)
	}
	if got, want := hashInts(allowed), oracleStream(t, "blockhammer"); got != want {
		t.Fatalf("blockhammer diverges from the oracle: plugin %+v, oracle %+v", got, want)
	}
}
