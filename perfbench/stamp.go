package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp is the provenance every result carries: enough to refuse a
// comparison across machines, toolchains, code or benchmark versions.
type stamp struct {
	Bench      string `json:"bench"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// Commit and Dirty come from git when the checkout is a repository
	// ("none" otherwise); SourceSHA256 hashes every .go and go.mod file,
	// so it identifies the measured code either way.
	Commit       string `json:"commit"`
	Dirty        bool   `json:"dirty"`
	SourceSHA256 string `json:"source_sha256"`
}

func makeStamp(e *env, name string, seconds int, traced bool) stamp {
	st := stamp{
		Bench: benchVersion, Workload: name, Seed: e.seed, Seconds: seconds, Traced: traced,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: e.workers, GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "none", SourceSHA256: sourceHash(e.root),
	}
	if _, err := os.Stat(filepath.Join(e.root, ".git")); err != nil {
		return st // not a git checkout (or inside someone else's)
	}
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "-C", e.root, "status", "--porcelain", "--untracked-files=no").Output()
		st.Dirty = err != nil || len(status) > 0
	}
	return st
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes the path and content of every Go source and go.mod
// file under root, in path order, skipping build output and VCS data.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
