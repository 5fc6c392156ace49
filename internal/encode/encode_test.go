package encode

import (
	"errors"
	"testing"

	"pak/internal/core"
	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/paper"
	"pak/internal/pps"
	"pak/internal/ratutil"
)

func TestRoundTripFiringSquad(t *testing.T) {
	sys, err := paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	// Structural equality: the Dump strings coincide (same node order,
	// probabilities, states and actions).
	if sys.Dump() != back.Dump() {
		t.Fatal("round trip changed the system")
	}
	// Semantic spot check: the paper's headline number survives.
	e := core.New(back)
	mu, err := e.ConstraintProb(paper.FSBothFire(), paper.Alice, paper.ActFire)
	if err != nil {
		t.Fatal(err)
	}
	if !ratutil.Eq(mu, ratutil.R(99, 100)) {
		t.Fatalf("µ after round trip = %v", mu)
	}
}

func TestRoundTripThat(t *testing.T) {
	sys, err := paper.That(ratutil.R(9, 10), ratutil.R(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dump() != back.Dump() {
		t.Fatal("round trip changed the system")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"not json", `{{{`},
		{"no agents", `{"agents":[],"nodes":[]}`},
		{"bad probability", `{"agents":["i"],"nodes":[{"id":1,"parent":0,"pr":"nope","locals":["l"]}]}`},
		{"unknown parent", `{"agents":["i"],"nodes":[{"id":1,"parent":5,"pr":"1","locals":["l"]}]}`},
		{"duplicate id", `{"agents":["i"],"nodes":[
			{"id":1,"parent":0,"pr":"1/2","locals":["l"]},
			{"id":1,"parent":0,"pr":"1/2","locals":["l2"]}]}`},
		{"invalid system", `{"agents":["i"],"nodes":[{"id":1,"parent":0,"pr":"1/2","locals":["l"]}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal([]byte(tt.in)); !errors.Is(err, ErrBadDocument) {
				t.Fatalf("err = %v, want ErrBadDocument", err)
			}
		})
	}
}

func TestParseFactOperators(t *testing.T) {
	sys, err := paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	// Find a run where both fire (go=1, Bob got, at t=2).
	bothJSON := `{"op":"and","args":[
		{"op":"does","agent":"Alice","action":"fire"},
		{"op":"does","agent":"Bob","action":"fire"}]}`
	f, err := ParseFact([]byte(bothJSON))
	if err != nil {
		t.Fatal(err)
	}
	// It should agree with the native fact at every point.
	native := paper.FSBothFire()
	for r := 0; r < sys.NumRuns(); r++ {
		for tt := 0; tt < sys.RunLen(pps.RunID(r)); tt++ {
			if f.Holds(sys, pps.RunID(r), tt) != native.Holds(sys, pps.RunID(r), tt) {
				t.Fatalf("parsed fact disagrees with native at (%d,%d)", r, tt)
			}
		}
	}
}

func TestParseFactTable(t *testing.T) {
	valid := []string{
		`{"op":"true"}`,
		`{"op":"false"}`,
		`{"op":"does","agent":"a","action":"x"}`,
		`{"op":"performed","agent":"a","action":"x"}`,
		`{"op":"localIs","agent":"a","local":"l"}`,
		`{"op":"localContains","agent":"a","substr":"s"}`,
		`{"op":"envIs","env":"e"}`,
		`{"op":"timeIs","time":3}`,
		`{"op":"not","arg":{"op":"true"}}`,
		`{"op":"sometime","arg":{"op":"true"}}`,
		`{"op":"always","arg":{"op":"true"}}`,
		`{"op":"and","args":[{"op":"true"},{"op":"false"}]}`,
		`{"op":"or","args":[]}`,
		`{"op":"implies","args":[{"op":"true"},{"op":"false"}]}`,
		`{"op":"iff","args":[{"op":"true"},{"op":"true"}]}`,
	}
	for _, in := range valid {
		if _, err := ParseFact([]byte(in)); err != nil {
			t.Errorf("ParseFact(%s) = %v", in, err)
		}
	}
	invalid := []string{
		`not json`,
		`{"op":"frobnicate"}`,
		`{"op":"does","agent":"a"}`,
		`{"op":"performed","action":"x"}`,
		`{"op":"localIs"}`,
		`{"op":"localContains","agent":"a"}`,
		`{"op":"not"}`,
		`{"op":"implies","args":[{"op":"true"}]}`,
		`{"op":"not","arg":{"op":"bogus"}}`,
	}
	for _, in := range invalid {
		if _, err := ParseFact([]byte(in)); !errors.Is(err, ErrBadFact) {
			t.Errorf("ParseFact(%s) err = %v, want ErrBadFact", in, err)
		}
	}
}

func TestParseQuery(t *testing.T) {
	q, f, err := ParseQuery([]byte(`{
		"agent": "Alice",
		"action": "fire",
		"threshold": "95/100",
		"fact": {"op":"does","agent":"Bob","action":"fire"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.Agent != "Alice" || q.Action != "fire" || q.Threshold != "95/100" {
		t.Fatalf("query = %+v", q)
	}
	if f == nil || f.String() != "does_Bob(fire)" {
		t.Fatalf("fact = %v", f)
	}

	invalid := []string{
		`nope`,
		`{"action":"fire","fact":{"op":"true"}}`,
		`{"agent":"A","fact":{"op":"true"}}`,
		`{"agent":"A","action":"x"}`,
		`{"agent":"A","action":"x","fact":{"op":"bogus"}}`,
	}
	for _, in := range invalid {
		if _, _, err := ParseQuery([]byte(in)); !errors.Is(err, ErrBadFact) {
			t.Errorf("ParseQuery(%s) err = %v, want ErrBadFact", in, err)
		}
	}
}

func TestParseFactEpistemic(t *testing.T) {
	sys, err := paper.That(ratutil.R(9, 10), ratutil.R(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	// B_i^{9/10}(bit=1) holds at t1 only in the revealing run 2.
	f, err := ParseFact([]byte(`{"op":"believes","agent":"i","p":"9/10",
		"arg":{"op":"localContains","agent":"j","substr":"bit=1"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Holds(sys, 1, 1) || !f.Holds(sys, 2, 1) {
		t.Fatal("parsed believes fact has wrong semantics")
	}
	k, err := ParseFact([]byte(`{"op":"knows","agent":"j",
		"arg":{"op":"localContains","agent":"j","substr":"bit=1"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !k.Holds(sys, 1, 0) || k.Holds(sys, 0, 0) {
		t.Fatal("parsed knows fact has wrong semantics")
	}

	invalid := []string{
		`{"op":"believes","p":"1/2","arg":{"op":"true"}}`,             // no agent
		`{"op":"believes","agent":"i","arg":{"op":"true"}}`,           // no p
		`{"op":"believes","agent":"i","p":"3/2","arg":{"op":"true"}}`, // p out of range
		`{"op":"believes","agent":"i","p":"1/2"}`,                     // no arg
		`{"op":"knows","arg":{"op":"true"}}`,                          // no agent
		`{"op":"knows","agent":"i"}`,                                  // no arg
	}
	for _, in := range invalid {
		if _, err := ParseFact([]byte(in)); !errors.Is(err, ErrBadFact) {
			t.Errorf("ParseFact(%s) err = %v, want ErrBadFact", in, err)
		}
	}
}

// TestFactMarshalRoundTrip marshals every structural fact constructor,
// parses the document back, and requires the re-marshalled bytes and the
// rendered fact to be identical.
func TestFactMarshalRoundTrip(t *testing.T) {
	facts := []logic.Fact{
		logic.True(),
		logic.False(),
		logic.Does("a", "x"),
		logic.Performed("a", "x"),
		logic.LocalIs("a", "l0"),
		logic.LocalContains("a", "o1"),
		logic.EnvIs("e"),
		logic.TimeIs(2),
		logic.Not(logic.Does("a", "x")),
		logic.And(logic.Does("a", "x"), logic.EnvIs("e")),
		logic.Or(logic.Does("a", "x"), logic.Does("b", "y")),
		logic.Implies(logic.Does("a", "x"), logic.EnvIs("e")),
		logic.Iff(logic.Does("a", "x"), logic.EnvIs("e")),
		logic.Sometime(logic.Does("a", "x")),
		logic.Always(logic.EnvIs("e")),
		logic.Once(logic.Does("a", "x")),
		logic.SoFar(logic.EnvIs("e")),
		logic.Eventually(logic.Does("a", "x")),
		logic.Henceforth(logic.EnvIs("e")),
		logic.AtTime(1, logic.Does("a", "x")),
		epistemic.Believes("a", ratutil.R(9, 10), logic.Does("b", "y")),
		epistemic.Knows("a", logic.EnvIs("e")),
		epistemic.MutualBelief([]string{"a", "b"}, ratutil.R(1, 2), logic.EnvIs("e"), 2),
	}
	for i, f := range facts {
		data, err := MarshalFact(f)
		if err != nil {
			t.Fatalf("fact %d (%s): marshal: %v", i, f, err)
		}
		back, err := ParseFact(data)
		if err != nil {
			t.Fatalf("fact %d (%s): parse: %v", i, f, err)
		}
		if back.String() != f.String() {
			t.Errorf("fact %d: round-trip rendered %q, want %q", i, back.String(), f.String())
		}
		again, err := MarshalFact(back)
		if err != nil {
			t.Fatalf("fact %d (%s): re-marshal: %v", i, f, err)
		}
		if string(again) != string(data) {
			t.Errorf("fact %d (%s): document drift:\n%s\nvs\n%s", i, f, data, again)
		}
	}
}

// TestMarshalFactOpaque pins the opaque-predicate refusal.
func TestMarshalFactOpaque(t *testing.T) {
	opaque := []logic.Fact{
		logic.Atom("a", func(*pps.System, pps.RunID, int) bool { return true }),
		logic.LocalPred("a", "p", func(string) bool { return true }),
		logic.EnvPred("p", func(string) bool { return true }),
		logic.And(logic.True(), logic.EnvPred("p", func(string) bool { return true })),
		epistemic.Knows("a", logic.Atom("a", func(*pps.System, pps.RunID, int) bool { return true })),
	}
	for i, f := range opaque {
		if _, err := MarshalFact(f); !errors.Is(err, ErrOpaqueFact) {
			t.Errorf("fact %d (%s): err = %v, want ErrOpaqueFact", i, f, err)
		}
	}
}

// TestParseFactErrorMessages pins ParseFact's error text, including
// which error a document with several reports: each node is checked
// before its subfacts, subfacts are parsed in document order, and
// subfacts an operator does not read are never parsed.
func TestParseFactErrorMessages(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{`{"op":"does"}`, `encode: malformed fact document: op "does" requires agent and action`},
		{`{"op":"does","agent":"a"}`, `encode: malformed fact document: op "does" requires agent and action`},
		{`{"op":"performed","agent":"a"}`, `encode: malformed fact document: op "performed" requires agent and action`},
		{`{"op":"localIs"}`, `encode: malformed fact document: localIs requires agent`},
		{`{"op":"localContains","agent":"a"}`, `encode: malformed fact document: localContains requires agent and substr`},
		{`{"op":"timeIs","time":"x"}`, `encode: malformed fact document: json: cannot unmarshal string into Go struct field factDoc.time of type int`},
		{`{"op":"not"}`, `encode: malformed fact document: op "not" requires "arg"`},
		{`{"op":"not","arg":null}`, `encode: malformed fact document: unknown op ""`},
		{`{"op":"not","arg":{"op":"nope"}}`, `encode: malformed fact document: unknown op "nope"`},
		{`{"op":"atTime","time":2}`, `encode: malformed fact document: op "atTime" requires "arg"`},
		{`{"op":"or","args":[{"op":"true"},{"op":"bad"},{"op":"does"}]}`, `encode: malformed fact document: unknown op "bad"`},
		{`{"op":"and","args":[{"op":"not"},{"op":"true","time":"x"}]}`, `encode: malformed fact document: op "not" requires "arg"`},
		{`{"op":"implies","args":[{"op":"true"}]}`, `encode: malformed fact document: op "implies" requires exactly 2 args`},
		{`{"op":"iff","args":[{"op":"true"},{"op":"false"},{"op":"true"}]}`, `encode: malformed fact document: op "iff" requires exactly 2 args`},
		{`{"op":"believes"}`, `encode: malformed fact document: believes requires agent`},
		{`{"op":"believes","agent":"a"}`, `encode: malformed fact document: believes requires p in [0,1], got ""`},
		{`{"op":"believes","agent":"a","p":"3/2"}`, `encode: malformed fact document: believes requires p in [0,1], got "3/2"`},
		{`{"op":"believes","agent":"a","p":"1/2"}`, `encode: malformed fact document: op "believes" requires "arg"`},
		{`{"op":"believes","agent":"a","p":"x","arg":{"op":"zz"}}`, `encode: malformed fact document: believes requires p in [0,1], got "x"`},
		{`{"op":"believes","p":"1","arg":{"op":"true"}}`, `encode: malformed fact document: believes requires agent`},
		{`{"op":"knows"}`, `encode: malformed fact document: knows requires agent`},
		{`{"op":"knows","agent":"a"}`, `encode: malformed fact document: op "knows" requires "arg"`},
		{`{"op":""}`, `encode: malformed fact document: unknown op ""`},
		{`{}`, `encode: malformed fact document: unknown op ""`},
		{`[]`, `encode: malformed fact document: json: cannot unmarshal array into Go value of type encode.factDoc`},
		{`{"op":"zz","arg":{"op":"true"}}`, `encode: malformed fact document: unknown op "zz"`},
		{`{"op":"not","arg":[1]}`, `encode: malformed fact document: json: cannot unmarshal array into Go value of type encode.factDoc`},
		{`{"op":"and","args":[1]}`, `encode: malformed fact document: json: cannot unmarshal number into Go value of type encode.factDoc`},
	} {
		_, err := ParseFact([]byte(tc.doc))
		if err == nil || err.Error() != tc.want || !errors.Is(err, ErrBadFact) {
			t.Errorf("ParseFact(%s) err = %v, want %q", tc.doc, err, tc.want)
		}
	}
	for _, doc := range []string{`{"op":"true","arg":{"op":1}}`, `{"op":"and","arg":{"op":5},"args":[{"op":"true"}]}`} {
		if _, err := ParseFact([]byte(doc)); err != nil {
			t.Errorf("ParseFact(%s) = %v; a subfact the operator does not read must be ignored", doc, err)
		}
	}
}
