package cliflags

import (
	"fmt"
	"strings"

	"safeguard/internal/sim"
)

// ParseSchemeList parses a comma-separated -schemes value into schemes,
// accepting every spelling sim.ParseScheme does and rejecting
// duplicates (after aliasing: "sgx,SGX-style" is one scheme twice). An
// empty csv returns nil, letting callers fall back to their default
// lineup; a csv of only commas is an error, because the user asked for
// a custom lineup and named nobody.
func ParseSchemeList(csv string) ([]sim.Scheme, error) {
	if csv == "" {
		return nil, nil
	}
	var out []sim.Scheme
	seen := map[sim.Scheme]bool{}
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := sim.ParseScheme(name)
		if err != nil {
			return nil, err
		}
		if seen[s] {
			return nil, fmt.Errorf("scheme %s listed twice in %q", s, csv)
		}
		seen[s] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-schemes %q names no scheme", csv)
	}
	return out, nil
}

// Seeds is the -seeds list: 1..n.
func Seeds(n int) []uint64 {
	out := make([]uint64, 0, n)
	for s := 1; s <= n; s++ {
		out = append(out, uint64(s))
	}
	return out
}
