package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// selfFractions runs `go tool pprof -top` on a CPU profile file and
// returns each layer's share of the sampled CPU self time.
func selfFractions(path string) (frac map[string]float64, samples int64, err error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return topFractions(out)
}

// topFractions sums the flat sample counts of `pprof -top` output by
// layer. pprof charges every sample to its innermost (inlined) function,
// so summing flat counts charges it to that function's package, mapped
// through layerOf. Functions outside the layer list count in the total
// only, so the fractions sum to at most 1.
func topFractions(top []byte) (frac map[string]float64, samples int64, err error) {
	byLayer := make(map[string]int64)
	header := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			return nil, 0, fmt.Errorf("pprof -top: unexpected row %q", sc.Text())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof -top: flat count in %q: %v", sc.Text(), err)
		}
		samples += n
		if l := layerOf(f[5]); l != "" {
			byLayer[l] += n
		}
	}
	if !header {
		return nil, 0, fmt.Errorf("pprof -top: no table in output %q", top)
	}
	frac = make(map[string]float64)
	for l, n := range byLayer {
		frac[l] = ratio(float64(n), float64(samples))
	}
	return frac, samples, nil
}

// profileFractions writes a CPU profile to path and attributes it.
func profileFractions(path string, prof []byte) (map[string]float64, int64, error) {
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return nil, 0, err
	}
	return selfFractions(path)
}

// splitNote renders a profile's per-layer split, largest share first.
// It lists every program package, not only the reported layers.
func splitNote(label string, frac map[string]float64) string {
	layers := make([]string, 0, len(frac))
	for l, f := range frac {
		if f > 0 {
			layers = append(layers, l)
		}
	}
	sort.Slice(layers, func(a, b int) bool {
		if frac[layers[a]] != frac[layers[b]] {
			return frac[layers[a]] > frac[layers[b]]
		}
		return layers[a] < layers[b]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "self time split, %s:", label)
	for _, l := range layers {
		fmt.Fprintf(&b, " %s %.3f", l, frac[l])
	}
	return b.String()
}

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "safeguard/internal/"

// layerOf maps a fully qualified function name to its layer: the
// program package name for safeguard/internal/<pkg>, "runtime" for the
// Go runtime (allocator, GC, scheduler), "" otherwise.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		rest := pkg[len(modulePrefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// packageOf strips the symbol from a function name:
// "safeguard/internal/memctrl.(*Controller).schedule" ->
// "safeguard/internal/memctrl".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
