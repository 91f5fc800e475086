package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestMSHRTableMatchesMap drives the table and a Go map through the same
// random puts, gets, and deletes — clustered lines, so probe runs wrap
// and deletions shift them — through the table's growths.
func TestMSHRTableMatchesMap(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(5, 6))
	var tab mshrTable
	ref := map[uint64]*mshrEntry{}
	for step := 0; step < 200_000; step++ {
		// A few hundred lines, some far apart: about 250 stay live, past
		// the first two growths.
		line := uint64(rng.IntN(600))
		if rng.IntN(8) == 0 {
			line = rng.Uint64()
		}
		want := ref[line]
		if got := tab.get(line); got != want {
			t.Fatalf("step %d: get(%#x) = %p, map %p", step, line, got, want)
		}
		switch {
		case want == nil && rng.IntN(2) == 0:
			e := &mshrEntry{}
			tab.put(line, e)
			ref[line] = e
		case want != nil && rng.IntN(3) > 0:
			tab.del(line)
			delete(ref, line)
		}
		if tab.len() != len(ref) {
			t.Fatalf("step %d: len %d, map %d", step, tab.len(), len(ref))
		}
	}
	lines := tab.lines(nil)
	slices.Sort(lines)
	for _, l := range lines {
		if ref[l] == nil || tab.get(l) != ref[l] {
			t.Fatalf("line %#x listed but not held", l)
		}
	}
	if len(lines) != len(ref) {
		t.Fatalf("lines lists %d, map holds %d", len(lines), len(ref))
	}
}
