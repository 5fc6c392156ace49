package logic

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"pak/internal/pps"
)

// fmtKey is the fmt-based rendering FactSpec.Key replaced; Key must
// produce exactly its bytes, because engine memo keys (and anything a
// caller derived from them) are built from it.
func fmtKey(s FactSpec) string {
	var b strings.Builder
	var write func(s FactSpec)
	write = func(s FactSpec) {
		fmt.Fprintf(&b, "%s(%q,%q,%q,%q,%q,%d,%q", s.Op, s.Agent, s.Action, s.Local, s.Substr, s.Env, s.Time, s.P)
		if s.Arg != nil {
			b.WriteString(",[")
			write(*s.Arg)
			b.WriteString("]")
		}
		for _, arg := range s.Args {
			b.WriteString(",[")
			write(arg)
			b.WriteString("]")
		}
		b.WriteString(")")
	}
	write(s)
	return b.String()
}

// randName draws a string that exercises quoting: empty, quotes,
// backslashes, control bytes, invalid UTF-8 and multi-byte runes.
func randName(rng *rand.Rand) string {
	pieces := []string{"", "a", "General", `"`, `\`, "\n", "\x00", "\xff", "é", "β_i", "(", ")", ",", "[", "]", " ", "🙂"}
	var b strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// randSpec draws an arbitrary spec tree: every field set at random,
// Arg and Args independently present, so the rendering is exercised
// beyond the shapes real facts produce.
func randSpec(rng *rand.Rand, depth int) FactSpec {
	ops := []string{"true", "does", "and", "believes", "", "x(y", `"q"`}
	s := FactSpec{
		Op:     ops[rng.Intn(len(ops))],
		Agent:  randName(rng),
		Action: randName(rng),
		Local:  randName(rng),
		Substr: randName(rng),
		Env:    randName(rng),
		Time:   rng.Intn(2001) - 1000,
		P:      randName(rng),
	}
	if depth > 0 && rng.Intn(2) == 0 {
		arg := randSpec(rng, depth-1)
		s.Arg = &arg
	}
	if depth > 0 {
		for n := rng.Intn(3); n > 0; n-- {
			s.Args = append(s.Args, randSpec(rng, depth-1))
		}
	}
	return s
}

// TestKeyMatchesFmtRendering holds Key to the fmt rendering on random
// spec trees.
func TestKeyMatchesFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := randSpec(rng, 3)
		if got, want := s.Key(), fmtKey(s); got != want {
			t.Fatalf("spec %d: Key %q, fmt rendering %q", i, got, want)
		}
	}
}

// fakeEpistemic stands in for package epistemic's operators: a fact
// whose spec records what FromSpec handed over.
type fakeEpistemic struct{}

type fakeFact struct{ spec FactSpec }

func (fakeFact) Holds(*pps.System, pps.RunID, int) bool { return false }
func (f fakeFact) String() string                       { return f.spec.Op }
func (f fakeFact) Spec() (FactSpec, bool)               { return f.spec, true }

func (fakeEpistemic) Believes(agent string, p *big.Rat, arg Fact, argSpec *FactSpec) Fact {
	return fakeFact{FactSpec{Op: "believes", Agent: agent, P: p.RatString(), Arg: argSpec}}
}

func (fakeEpistemic) Knows(agent string, arg Fact, argSpec *FactSpec) Fact {
	return fakeFact{FactSpec{Op: "knows", Agent: agent, Arg: argSpec}}
}

// TestFromSpecRoundTrip: rebuilding a fact from its spec yields a fact
// with the same spec, for every operator SpecOf reports, including Go
// facts with names a document could not carry (empty agent, empty
// substring).
func TestFromSpecRoundTrip(t *testing.T) {
	leaf := Does("", "x")
	facts := []Fact{
		True(), False(), leaf, LocalIs("a", ""), LocalContains("a", ""), EnvIs("e"), TimeIs(-3),
		Not(leaf), Sometime(leaf), Always(leaf), Once(leaf), SoFar(leaf), Eventually(leaf),
		Henceforth(leaf), AtTime(2, leaf), And(), Or(leaf, True()), Implies(leaf, False()),
		Iff(leaf, EnvIs("e")), Performed("a", "b"),
		fakeFact{FactSpec{Op: "believes", Agent: "a", P: "1/3", Arg: &FactSpec{Op: "true"}}},
		fakeFact{FactSpec{Op: "knows", Agent: "a", Arg: &FactSpec{Op: "does", Agent: "b", Action: "c"}}},
	}
	for _, f := range facts {
		want, ok := SpecOf(f)
		if !ok {
			t.Fatalf("%v has no spec", f)
		}
		rebuilt, err := FromSpec(want, fakeEpistemic{})
		if err != nil {
			t.Fatalf("FromSpec(%s): %v", want.Key(), err)
		}
		got, ok := SpecOf(rebuilt)
		if !ok || got.Key() != want.Key() {
			t.Errorf("round trip of %s gave %s", want.Key(), got.Key())
		}
	}
	if _, err := FromSpec(FactSpec{Op: "knows", Agent: "a", Arg: &FactSpec{Op: "true"}}, nil); err == nil {
		t.Error("an epistemic spec built without an Epistemic")
	}
	if _, err := FromSpec(FactSpec{Op: "believes", Agent: "a", P: "3/2", Arg: &FactSpec{Op: "true"}}, fakeEpistemic{}); err == nil {
		t.Error("a believes level outside [0,1] built")
	}
}
