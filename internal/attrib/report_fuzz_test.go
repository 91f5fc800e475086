package attrib

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadReport is the sgprof report reader's fuzz target, seeded with
// two real reports (a -run report of CPI stacks and a -read report of a
// trace analysis): reading never panics, and an accepted report renders
// through WriteJSON to bytes that read back to an equal report and
// render to exactly themselves.
func FuzzReadReport(f *testing.F) {
	for _, name := range []string{"report_stacks.json", "report_trace.json"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"schema":"sgprof/1","cpi_stacks":[{"label":"x","cycles":3,"components":{"base":1,"dram":2}}]}`))
	f.Add([]byte(`{"schema":"sgprof/1","cpi_stacks":[{"label":"x","cycles":4,"components":{"base":1}}]}`))
	f.Add([]byte(`{"schema":"sgprof/0"}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := ReadReport(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := r.WriteJSON(&first); err != nil {
			t.Fatalf("accepted report does not render: %v", err)
		}
		back, err := ReadReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rendering of an accepted report does not re-read: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rendering unstable:\n%s\nre-renders as\n%s", first.Bytes(), second.Bytes())
		}
		again, err := ReadReport(bytes.NewReader(second.Bytes()))
		if err != nil || !reflect.DeepEqual(back, again) {
			t.Fatalf("re-read differs (err %v):\n got  %+v\n want %+v", err, again, back)
		}
	})
}
