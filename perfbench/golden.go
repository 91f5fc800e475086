package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// golden holds the recorded seed's per-unit output digests for one
// workload (perfbench/golden/<workload>.json, written by
// -update-golden). Units of other seeds, and units past the recorded
// range, get only the workload's seed-independent checks.
type golden struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Digests  map[string]string `json:"digests"`
}

func goldenPath(root, name string) string {
	return filepath.Join(root, "perfbench", "golden", name+".json")
}

// loadGolden reads the workload's golden; a missing file is an empty
// golden.
func loadGolden(root, name string) (*golden, error) {
	b, err := os.ReadFile(goldenPath(root, name))
	if errors.Is(err, fs.ErrNotExist) {
		return &golden{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return &g, nil
}

// check marks every unit whose digest differs from the golden's.
func (g *golden) check(seed uint64, units []unitResult) {
	if g.Digests == nil || seed != g.Seed {
		return
	}
	for i := range units {
		u := &units[i]
		want, ok := g.Digests[strconv.Itoa(u.index)]
		if !ok || u.digest == "" || u.err != nil {
			continue
		}
		if u.digest != want {
			u.err = fmt.Errorf("output %q differs from golden %q", u.digest, want)
		}
	}
}

// save records the run's digests as the workload's golden.
func (g *golden) save(root, name string, seed uint64, units []unitResult) error {
	out := golden{Workload: name, Seed: seed, Digests: make(map[string]string)}
	for _, u := range units {
		if u.err != nil {
			return fmt.Errorf("unit %d failed, refusing to record it as golden: %v", u.index, u.err)
		}
		if u.digest != "" {
			out.Digests[strconv.Itoa(u.index)] = u.digest
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(root, name)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root, name), append(b, '\n'), 0o644)
}

// digestBytes is a short content digest for outputs too large to keep
// verbatim (artifacts, matrices).
func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
