package bif

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
)

// asiaBIF is the chest-clinic network in BIF text form, with state order
// (no, yes) matching bayesnet.Asia's convention (state 0 = no).
const asiaBIF = `
// Lauritzen & Spiegelhalter's chest clinic.
network asia {
  property author "L&S 1988";
}
variable Asia   { type discrete [ 2 ] { no, yes }; }
variable Smoke  { type discrete [ 2 ] { no, yes }; }
variable Tub    { type discrete [ 2 ] { no, yes }; }
variable Lung   { type discrete [ 2 ] { no, yes }; }
variable Bronc  { type discrete [ 2 ] { no, yes }; }
variable TbOrCa { type discrete [ 2 ] { no, yes }; }
variable XRay   { type discrete [ 2 ] { no, yes }; }
variable Dysp   { type discrete [ 2 ] { no, yes }; }

probability ( Asia )  { table 0.99, 0.01; }
probability ( Smoke ) { table 0.5, 0.5; }
probability ( Tub | Asia ) {
  (no)  0.99, 0.01;
  (yes) 0.95, 0.05;
}
probability ( Lung | Smoke ) {
  (no)  0.99, 0.01;
  (yes) 0.90, 0.10;
}
probability ( Bronc | Smoke ) {
  (no)  0.7, 0.3;
  (yes) 0.4, 0.6;
}
probability ( TbOrCa | Tub, Lung ) {
  (no, no)   1, 0;
  (no, yes)  0, 1;
  (yes, no)  0, 1;
  (yes, yes) 0, 1;
}
probability ( XRay | TbOrCa ) {
  (no)  0.95, 0.05;
  (yes) 0.02, 0.98;
}
probability ( Dysp | TbOrCa, Bronc ) {
  (no, no)   0.9, 0.1;
  (no, yes)  0.2, 0.8;
  (yes, no)  0.3, 0.7;
  (yes, yes) 0.1, 0.9;
}
`

func TestParseAsiaMatchesBuiltin(t *testing.T) {
	doc, err := ParseString(asiaBIF)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "asia" {
		t.Errorf("network name %q", doc.Name)
	}
	net, states, err := doc.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bayesnet.Asia()
	if net.N() != want.N() {
		t.Fatalf("%d variables, want %d", net.N(), want.N())
	}
	if got := states["Asia"]; len(got) != 2 || got[0] != "no" || got[1] != "yes" {
		t.Errorf("Asia states %v", got)
	}
	// Same marginals for every variable under the same evidence.
	for id := 0; id < want.N(); id++ {
		name := want.Name(id)
		parsedID := net.ID(name)
		if parsedID < 0 {
			t.Fatalf("parsed network lacks %q", name)
		}
		ev := potential.Evidence{net.ID("XRay"): 1}
		wantEv := potential.Evidence{want.ID("XRay"): 1}
		got, err := net.ExactMarginal(parsedID, ev)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := want.ExactMarginal(id, wantEv)
		if err != nil {
			t.Fatal(err)
		}
		for s := range got.Data {
			if math.Abs(got.Data[s]-exp.Data[s]) > 1e-12 {
				t.Errorf("P(%s|XRay) = %v, want %v", name, got.Data, exp.Data)
				break
			}
		}
	}
}

func TestParseTableForm(t *testing.T) {
	src := `
network n { }
variable A { type discrete [ 2 ] { f, t }; }
variable B { type discrete [ 3 ] { x, y, z }; }
probability ( A ) { table 0.25, 0.75; }
probability ( B | A ) { table 0.1, 0.2, 0.7, 0.3, 0.3, 0.4; }
`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := doc.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	b := net.ID("B")
	// table order: parent configs slowest, child fastest.
	cpt := net.Nodes[b].CPT
	if got := cpt.At(0, 2); got != 0.7 {
		t.Errorf("P(B=z|A=f) = %v, want 0.7", got)
	}
	if got := cpt.At(1, 0); got != 0.3 {
		t.Errorf("P(B=x|A=t) = %v, want 0.3", got)
	}
}

func TestParseDefaultRows(t *testing.T) {
	src := `
network n { }
variable A { type discrete [ 2 ] { f, t }; }
variable B { type discrete [ 2 ] { f, t }; }
probability ( A ) { table 0.5, 0.5; }
probability ( B | A ) {
  (t) 0.2, 0.8;
  default 0.9, 0.1;
}
`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := doc.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	cpt := net.Nodes[net.ID("B")].CPT
	if got := cpt.At(0, 0); got != 0.9 {
		t.Errorf("default row not applied: %v", got)
	}
	if got := cpt.At(1, 1); got != 0.8 {
		t.Errorf("explicit row lost: %v", got)
	}
}

func TestParseOutOfOrderDeclarations(t *testing.T) {
	// Child declared before its parent: ToNetwork must reorder.
	src := `
network n { }
variable Child { type discrete [ 2 ] { f, t }; }
variable Root  { type discrete [ 2 ] { f, t }; }
probability ( Child | Root ) { (f) 0.5, 0.5; (t) 0.1, 0.9; }
probability ( Root ) { table 0.3, 0.7; }
`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := doc.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := net.ExactMarginal(net.ID("Child"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3*0.5 + 0.7*0.9
	if math.Abs(m.Data[1]-want) > 1e-12 {
		t.Errorf("P(Child=t) = %v, want %v", m.Data[1], want)
	}
}

func TestParseComments(t *testing.T) {
	src := `
/* block
   comment */
network n { } // trailing
variable A { type discrete [ 2 ] { a0, a1 }; } /* inline */ probability ( A ) { table 1, 0; }
`
	if _, err := ParseString(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"garbage", "@@@"},
		{"unknown decl", "foo { }"},
		{"unterminated comment", "/* nope"},
		{"unterminated string", "network \"x { }"},
		{"state count mismatch", `network n { } variable A { type discrete [ 3 ] { a, b }; } probability ( A ) { table 1, 0; }`},
		{"missing type", `network n { } variable A { } probability ( A ) { table 1; }`},
		{"undeclared child", `network n { } probability ( A ) { table 1; }`},
		{"undeclared parent", `network n { } variable A { type discrete [ 2 ] { a, b }; } probability ( A | B ) { default 1, 0; }`},
		{"two blocks", `network n { } variable A { type discrete [ 2 ] { a, b }; } probability ( A ) { table 1, 0; } probability ( A ) { table 1, 0; }`},
		{"no block", `network n { } variable A { type discrete [ 2 ] { a, b }; }`},
		{"bad table size", `network n { } variable A { type discrete [ 2 ] { a, b }; } probability ( A ) { table 1, 0, 0; }`},
		{"missing row", `network n { } variable A { type discrete [ 2 ] { a, b }; } variable B { type discrete [ 2 ] { a, b }; } probability ( A ) { table 1, 0; } probability ( B | A ) { (a) 1, 0; }`},
		{"duplicate row", `network n { } variable A { type discrete [ 2 ] { a, b }; } variable B { type discrete [ 2 ] { a, b }; } probability ( A ) { table 1, 0; } probability ( B | A ) { (a) 1, 0; (a) 0, 1; default 1, 0; }`},
		{"bad parent state", `network n { } variable A { type discrete [ 2 ] { a, b }; } variable B { type discrete [ 2 ] { a, b }; } probability ( A ) { table 1, 0; } probability ( B | A ) { (zzz) 1, 0; default 1, 0; }`},
		{"cycle", `network n { } variable A { type discrete [ 2 ] { a, b }; } variable B { type discrete [ 2 ] { a, b }; } probability ( A | B ) { default 1, 0; } probability ( B | A ) { default 1, 0; }`},
		{"unnormalized", `network n { } variable A { type discrete [ 2 ] { a, b }; } probability ( A ) { table 0.5, 0.4; }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc, err := ParseString(c.src)
			if err != nil {
				return // lex/parse error: fine
			}
			if _, _, err := doc.ToNetwork(); err == nil {
				t.Errorf("accepted %s", c.name)
			}
		})
	}
}

// TestLexErrorReportedFirst: input the lexer refuses is refused for that,
// even where the parser fails on an earlier token, so a file's error does not
// depend on how far the parser got before the lexer reached the bad input.
func TestLexErrorReportedFirst(t *testing.T) {
	for src, want := range map[string]string{
		"foo @":                       "bif: line 1: unexpected character '@'",
		"foo { } /* x":                "bif: line 1: unterminated block comment",
		"variable A {\n type x\n}\n@": "bif: line 4: unexpected character '@'",
		"network n { } zz \"open\nx":  "bif: line 1: unterminated string",
	} {
		if _, err := ParseString(src); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		orig := bayesnet.RandomNetwork(10, 3, 2, seed)
		var buf bytes.Buffer
		if err := Write(&buf, orig, "roundtrip", nil); err != nil {
			t.Fatal(err)
		}
		doc, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("seed %d: re-parse: %v\n%s", seed, err, buf.String())
		}
		back, _, err := doc.ToNetwork()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if back.N() != orig.N() {
			t.Fatalf("seed %d: %d nodes, want %d", seed, back.N(), orig.N())
		}
		for id := 0; id < orig.N(); id++ {
			name := orig.Name(id)
			// Variable ids may be renumbered; compare by distribution via
			// exact marginals instead of raw tables.
			m1, err := back.ExactMarginal(back.ID(name), nil)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := orig.ExactMarginal(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			for s := range m1.Data {
				if math.Abs(m1.Data[s]-m2.Data[s]) > 1e-9 {
					t.Errorf("seed %d: P(%s) = %v, want %v", seed, name, m1.Data, m2.Data)
					break
				}
			}
		}
	}
}

func TestWriteUsesStateNames(t *testing.T) {
	net, _ := bayesnet.Sprinkler()
	var buf bytes.Buffer
	states := map[string][]string{
		"Cloudy": {"clear", "overcast"},
	}
	if err := Write(&buf, net, "lawn", states); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "overcast") {
		t.Error("state names not used")
	}
	if !strings.Contains(out, "s0") {
		t.Error("missing synthetic state names for unnamed variables")
	}
	if _, err := ParseString(out); err != nil {
		t.Errorf("written file does not re-parse: %v", err)
	}
}

func TestWriteSanitizesNames(t *testing.T) {
	net := bayesnet.New()
	net.MustAddNode("weird name!", 2, nil, []float64{0.5, 0.5})
	var buf bytes.Buffer
	if err := Write(&buf, net, "x y", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseString(buf.String()); err != nil {
		t.Errorf("sanitized output does not re-parse: %v", err)
	}
}

// lexAll pulls every token of src from the lexer, end of input included.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll(`foo 1.5e-3 "str" { } ( ) [ ] | , ;`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokNumber, tokString,
		tokPunct, tokPunct, tokPunct, tokPunct, tokPunct, tokPunct, tokPunct, tokPunct, tokPunct, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("%d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d: kind %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexerLineNumbers(t *testing.T) {
	toks, err := lexAll("a\nb\n  c")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].line != 1 || toks[1].line != 2 || toks[2].line != 3 {
		t.Errorf("lines: %d %d %d", toks[0].line, toks[1].line, toks[2].line)
	}
}
