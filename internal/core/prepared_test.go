package core

import (
	"testing"

	"pak/internal/encode"
	"pak/internal/epistemic"
	"pak/internal/logic"
)

// TestRefOfPreparedMatchesRebuilt: a parsed fact arrives prepared
// (logic.Prepare), and refOf reads its key and operator bits instead of
// deriving them. For a document of every operator of logic's grammar
// table — alone, and nested under believes and knows — they must equal
// what refOf derives for the same fact rebuilt from its spec, which
// takes the unprepared path; and the prepared ref must scan the wrapped
// fact, not the wrapper.
func TestRefOfPreparedMatchesRebuilt(t *testing.T) {
	leaf := `{"op":"does","agent":"a","action":"x"}`
	docs := map[string]string{
		"true":          `{"op":"true"}`,
		"false":         `{"op":"false"}`,
		"does":          leaf,
		"performed":     `{"op":"performed","agent":"a","action":"x"}`,
		"localIs":       `{"op":"localIs","agent":"a","local":"l"}`,
		"localContains": `{"op":"localContains","agent":"a","substr":"s"}`,
		"envIs":         `{"op":"envIs","env":"e"}`,
		"timeIs":        `{"op":"timeIs","time":3}`,
		"not":           `{"op":"not","arg":` + leaf + `}`,
		"sometime":      `{"op":"sometime","arg":` + leaf + `}`,
		"always":        `{"op":"always","arg":` + leaf + `}`,
		"once":          `{"op":"once","arg":` + leaf + `}`,
		"soFar":         `{"op":"soFar","arg":` + leaf + `}`,
		"eventually":    `{"op":"eventually","arg":` + leaf + `}`,
		"henceforth":    `{"op":"henceforth","arg":` + leaf + `}`,
		"atTime":        `{"op":"atTime","time":2,"arg":` + leaf + `}`,
		"and":           `{"op":"and","args":[` + leaf + `,{"op":"true"}]}`,
		"or":            `{"op":"or","args":[` + leaf + `,{"op":"false"}]}`,
		"implies":       `{"op":"implies","args":[` + leaf + `,{"op":"true"}]}`,
		"iff":           `{"op":"iff","args":[` + leaf + `,{"op":"true"}]}`,
		"believes":      `{"op":"believes","agent":"a","p":"9/10","arg":` + leaf + `}`,
		"knows":         `{"op":"knows","agent":"a","arg":` + leaf + `}`,
	}
	check := func(name, doc string) {
		t.Helper()
		parsed, err := encode.ParseFact([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := parsed.(*logic.Prepared); !ok {
			t.Fatalf("%s: ParseFact returned %T, want *logic.Prepared", name, parsed)
		}
		spec, ok := logic.SpecOf(parsed)
		if !ok {
			t.Fatalf("%s: parsed fact has no spec", name)
		}
		rebuilt, err := logic.FromSpec(spec, epistemic.Ops{})
		if err != nil {
			t.Fatalf("%s: rebuild: %v", name, err)
		}
		got, want := refOf(parsed), refOf(rebuilt)
		if got.key != want.key || got.cacheable != want.cacheable ||
			got.measured != want.measured || got.epistemic != want.epistemic {
			t.Errorf("%s: prepared ref (key %q, cacheable %v, measured %v, epistemic %v), rebuilt ref (%q, %v, %v, %v)",
				name, got.key, got.cacheable, got.measured, got.epistemic,
				want.key, want.cacheable, want.measured, want.epistemic)
		}
		if got.spec.Key() != want.key {
			t.Errorf("%s: prepared ref's spec renders %q, want %q", name, got.spec.Key(), want.key)
		}
		if _, wrapped := got.f.(*logic.Prepared); wrapped {
			t.Errorf("%s: the prepared ref scans the wrapper", name)
		}
		if got.f.String() != parsed.String() {
			t.Errorf("%s: the prepared ref scans %s, want %s", name, got.f, parsed)
		}
	}
	for op, doc := range docs {
		check(op, doc)
		check("believes/"+op, `{"op":"believes","agent":"b","p":"1/2","arg":`+doc+`}`)
		check("knows/"+op, `{"op":"knows","agent":"b","arg":`+doc+`}`)
	}
}
