package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"safeguard/internal/resultcache"
	"safeguard/internal/telemetry"
)

// FuzzLoadPendingJobs feeds arbitrary bytes to the drain journal loader.
// Corrupt bytes must take the quarantine path, never panic or fail the
// load, and leave nothing on the boot path. Every entry the loader
// accepts must survive SavePendingJobs → LoadPendingJobs with the same
// request hash.
//
//	go test -run '^$' -fuzz '^FuzzLoadPendingJobs$' -fuzztime 60s ./internal/jobs
func FuzzLoadPendingJobs(f *testing.F) {
	rel := &resultcache.Request{Kind: resultcache.KindRel, Rel: &resultcache.RelRequest{Modules: 4096, FITScale: 10}}
	if err := rel.Normalize(); err != nil {
		f.Fatal(err)
	}
	f.Add(staleCheckpointJournal(f, reqN(f, 1), rel))
	for _, pf := range []pendingFile{
		{Schema: pendingSchema, Requests: []*resultcache.Request{reqN(f, 2), rel}},
		{Schema: "sgserve-pending/999", Jobs: []PendingJob{{Request: reqN(f, 3)}}},
	} {
		raw, err := json.Marshal(pf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "pending.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadPendingJobs(p, telemetry.NewRegistry())
		if err != nil {
			t.Fatalf("journal bytes failed the load: %v", err)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("journal still on the boot path after load (%v)", err)
		}
		if len(got) == 0 {
			return
		}
		if err := SavePendingJobs(p, got); err != nil {
			t.Fatalf("accepted entries do not save: %v", err)
		}
		back, err := LoadPendingJobs(p, telemetry.NewRegistry())
		if err != nil {
			t.Fatalf("saved journal does not load: %v", err)
		}
		if len(back) != len(got) {
			t.Fatalf("round trip kept %d of %d entries", len(back), len(got))
		}
		for i := range got {
			want, err := got[i].Request.Hash()
			if err != nil {
				t.Fatalf("accepted entry %d does not hash: %v", i, err)
			}
			if h, err := back[i].Request.Hash(); err != nil || h != want {
				t.Fatalf("entry %d hashes to %s (%v) after the round trip, want %s", i, h, err, want)
			}
		}
	})
}

// staleCheckpointJournal renders a journal as older builds wrote it, with
// a "checkpoint" ref beside the first request.
func staleCheckpointJournal(tb testing.TB, first, second *resultcache.Request) []byte {
	a, err := json.Marshal(first)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(`{"schema":"` + pendingSchema + `","jobs":[{"request":` + string(a) +
		`,"checkpoint":"sha256:abc"},{"request":` + string(b) + `}]}`)
}
