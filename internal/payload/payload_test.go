package payload

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) *Program {
	t.Helper()
	p, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func TestEncodeCanonicalForm(t *testing.T) {
	t.Parallel()
	p := &Program{
		Name: "demo",
		Body: []Instr{
			Act{Row: 7},
			Loop{Count: 3, Body: []Instr{
				Act{Row: 1},
				Nop{Cycles: 40},
				Loop{Count: 2, Body: []Instr{Act{Row: 9}}},
			}},
			Nop{Cycles: 5},
		},
	}
	want := "payload/1 demo\n" +
		"ACT 7\n" +
		"LOOP 3 {\n" +
		"  ACT 1\n" +
		"  NOP 40\n" +
		"  LOOP 2 {\n" +
		"    ACT 9\n" +
		"  }\n" +
		"}\n" +
		"NOP 5\n"
	if got := p.Encode(); got != want {
		t.Fatalf("Encode:\n%q\nwant:\n%q", got, want)
	}
}

func TestParseEncodeRoundTrip(t *testing.T) {
	t.Parallel()
	progs := []*Program{
		{Name: "flat", Body: []Instr{Act{Row: 0}, Act{Row: MaxRow}, Nop{Cycles: 1}}},
		{Name: "looped", Body: []Instr{Loop{Count: MaxLoop, Body: []Instr{Act{Row: 3}}}}},
		{Name: "nested", Body: []Instr{
			Loop{Count: 2, Body: []Instr{
				Act{Row: 5},
				Loop{Count: 4, Body: []Instr{Nop{Cycles: 2}, Act{Row: 6}}},
			}},
			Act{Row: 8},
		}},
		SingleSided(100, 999),
		DoubleSided(100, 1000),
		ManySided(200, 6, 1000, 500),
		HalfDouble(300, 4, 777),
	}
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", p.Name, err)
		}
		enc := p.Encode()
		back := mustParse(t, enc)
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("%s: round trip mismatch:\n%#v\n%#v", p.Name, p, back)
		}
		if enc2 := back.Encode(); enc2 != enc {
			t.Fatalf("%s: re-encode not byte-stable:\n%q\n%q", p.Name, enc, enc2)
		}
	}
}

func TestParseAcceptsNonCanonicalIndentAndZeros(t *testing.T) {
	t.Parallel()
	p := mustParse(t, "payload/1 x\n      ACT 007\nLOOP 02 {\nACT 1\n}\n")
	want := &Program{Name: "x", Body: []Instr{
		Act{Row: 7},
		Loop{Count: 2, Body: []Instr{Act{Row: 1}}},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("got %#v", p)
	}
	// Canonicalization is idempotent.
	if enc := p.Encode(); mustParse(t, enc).Encode() != enc {
		t.Fatal("canonical form unstable")
	}
}

func TestParseRejections(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"empty":               "",
		"no trailing newline": "payload/1 x\nACT 1",
		"bad schema":          "payload/2 x\nACT 1\n",
		"missing name":        "payload/1 \nACT 1\n",
		"name with space":     "payload/1 a b\nACT 1\n",
		"name too long":       "payload/1 " + strings.Repeat("a", MaxName+1) + "\nACT 1\n",
		"empty body":          "payload/1 x\n",
		"blank line":          "payload/1 x\nACT 1\n\nACT 2\n",
		"tab":                 "payload/1 x\n\tACT 1\n",
		"carriage return":     "payload/1 x\r\nACT 1\r\n",
		"unknown op":          "payload/1 x\nJMP 3\n",
		"act missing arg":     "payload/1 x\nACT\n",
		"act empty arg":       "payload/1 x\nACT \n",
		"act negative":        "payload/1 x\nACT -1\n",
		"act hex":             "payload/1 x\nACT 0x10\n",
		"act too big":         "payload/1 x\nACT 99999999\n",
		"act arg too long":    "payload/1 x\nACT 11111111111\n",
		"act trailing junk":   "payload/1 x\nACT 1 2\n",
		"nop zero":            "payload/1 x\nNOP 0\n",
		"loop zero":           "payload/1 x\nLOOP 0 {\nACT 1\n}\n",
		"loop missing brace":  "payload/1 x\nLOOP 2\nACT 1\n}\n",
		"loop junk after":     "payload/1 x\nLOOP 2 {x\nACT 1\n}\n",
		"loop empty body":     "payload/1 x\nLOOP 2 {\n}\n",
		"unmatched close":     "payload/1 x\nACT 1\n}\n",
		"unclosed loop":       "payload/1 x\nLOOP 2 {\nACT 1\n",
		"close trailing junk": "payload/1 x\nLOOP 2 {\nACT 1\n} \n",
		"lowercase op":        "payload/1 x\nact 1\n",
		"too deep": "payload/1 x\n" + strings.Repeat("LOOP 2 {\n", MaxDepth+1) +
			"ACT 1\n" + strings.Repeat("}\n", MaxDepth+1),
	}
	for name, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("%s: Parse accepted %q", name, in)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()
	cases := map[string]*Program{
		"nil name":   {Body: []Instr{Act{Row: 1}}},
		"empty body": {Name: "x"},
		"bad row":    {Name: "x", Body: []Instr{Act{Row: -1}}},
		"row high":   {Name: "x", Body: []Instr{Act{Row: MaxRow + 1}}},
		"bad nop":    {Name: "x", Body: []Instr{Nop{Cycles: 0}}},
		"bad loop":   {Name: "x", Body: []Instr{Loop{Count: 0, Body: []Instr{Act{Row: 1}}}}},
		"empty loop": {Name: "x", Body: []Instr{Loop{Count: 1}}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %#v", name, p)
		}
	}
	var nilProg *Program
	if err := nilProg.Validate(); err == nil {
		t.Error("nil program validated")
	}
}

func TestActsAndWalkAgree(t *testing.T) {
	t.Parallel()
	p := &Program{Name: "x", Body: []Instr{
		Act{Row: 1},
		Loop{Count: 10, Body: []Instr{
			Act{Row: 2}, Nop{Cycles: 3},
			Loop{Count: 5, Body: []Instr{Act{Row: 4}}},
		}},
	}}
	var acts, nops int64
	p.Walk(func(s Step) bool {
		if s.IsAct {
			acts++
		} else {
			nops += int64(s.NopCycles)
		}
		return true
	})
	if acts != p.Acts() || acts != 1+10*(1+5) {
		t.Fatalf("acts = %d, Acts() = %d", acts, p.Acts())
	}
	if nops != p.NopCycles() || nops != 30 {
		t.Fatalf("nops = %d, NopCycles() = %d", nops, p.NopCycles())
	}
	// Early stop works mid-loop.
	n := 0
	p.Walk(func(s Step) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop walked %d steps", n)
	}
}

func TestActsSaturates(t *testing.T) {
	t.Parallel()
	deep := []Instr{Act{Row: 1}}
	for i := 0; i < MaxDepth; i++ {
		deep = []Instr{Loop{Count: MaxLoop, Body: deep}}
	}
	p := &Program{Name: "x", Body: deep}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Acts(); got != satCap {
		t.Fatalf("Acts() = %d, want saturation at %d", got, satCap)
	}
}

func TestRollPanicsOnBadArgs(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("roll accepted acts=0")
		}
	}()
	SingleSided(1, 0)
}
