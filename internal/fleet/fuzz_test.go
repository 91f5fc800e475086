package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"safeguard/internal/telemetry"
)

// FuzzDecodeComplete feeds arbitrary bytes to the complete-body decoder.
// Decoding must never panic. An accepted envelope carries a non-empty
// artifact, survives re-marshaling to the same value, and its telemetry
// snapshot folds into a registry without a panic — the coordinator merges
// it into Config.Telemetry on a verified completion.
//
//	go test -run '^$' -fuzz '^FuzzDecodeComplete$' -fuzztime 60s ./internal/fleet
func FuzzDecodeComplete(f *testing.F) {
	art := goodArtifact(f, testReq(f, 1))
	reg := telemetry.NewRegistry()
	reg.Counter("experiments.runs").Add(2)
	reg.Gauge("sim.hmean_ipc").Set(0.5)
	reg.Histogram("memctrl.read_latency_mc", []int64{16, 32, 64}).Observe(40)
	snap := reg.Snapshot()
	full, err := json.Marshal(completeEnvelope{
		Artifact:  art,
		Telemetry: &snap,
		Progress:  &telemetry.Progress{Phase: "encode", Done: 1, Total: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(art) // the bare artifact: no longer a completion body
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"artifact":"e30=","worker":"w1"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := decodeComplete(body)
		if err != nil {
			return
		}
		if len(env.Artifact) == 0 {
			t.Fatal("accepted an envelope without an artifact")
		}
		raw, err := json.Marshal(env)
		if err != nil {
			t.Fatalf("accepted envelope does not marshal: %v", err)
		}
		back, err := decodeComplete(raw)
		if err != nil {
			t.Fatalf("re-marshaled envelope rejected: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(back, env) {
			t.Fatalf("round trip changed the envelope:\n got %+v\nwant %+v", back, env)
		}
		if env.Telemetry != nil {
			telemetry.NewRegistry().MergeSnapshot(*env.Telemetry)
		}
	})
}
