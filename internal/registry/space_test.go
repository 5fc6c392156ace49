package registry

import (
	"errors"
	"strings"
	"testing"

	"pak/internal/pps"
	"pak/internal/ratutil"
)

// nilBuildStub is a registration-only builder for metadata tests.
func nilBuildStub(Args) (*pps.System, error) { return nil, errors.New("not buildable") }

func TestParseSpaceSpecGrammar(t *testing.T) {
	ss, err := ParseSpaceSpec("sweep( nsquad , loss = 0.0..0.5/0.1 , n = 3 )")
	if err != nil {
		t.Fatal(err)
	}
	if ss.Scenario != "nsquad" || len(ss.Params) != 2 {
		t.Fatalf("parsed %+v", ss)
	}
	rg := ss.Params[0].Range
	if rg == nil || !ratutil.IsZero(rg.Lo) || !ratutil.Eq(rg.Hi, ratutil.R(1, 2)) || !ratutil.Eq(rg.Step, ratutil.R(1, 10)) {
		t.Fatalf("range = %+v", rg)
	}
	if ss.Params[1].Name != "n" || ss.Params[1].Value != "3" || ss.Params[1].Range != nil {
		t.Fatalf("fixed param = %+v", ss.Params[1])
	}
	if !ss.Swept() {
		t.Error("Swept() = false")
	}
}

func TestParseSpaceSpecRangeTokenForms(t *testing.T) {
	cases := []struct {
		in           string
		lo, hi, step string
	}{
		{"1..5", "1", "5", "1"},               // step defaults to 1
		{"0.0..0.5/0.1", "0", "1/2", "1/10"},  // decimals
		{"0..1/2", "0", "1", "2"},             // two tokens: hi, step
		{"0..5/1/10", "0", "5", "1/10"},       // three: integral hi, frac step
		{"0..1/2/1/10", "0", "1/2", "1/10"},   // four: both fractional
		{"1/4..1/2/1/8", "1/4", "1/2", "1/8"}, // fractional lo
		{"-2..2", "-2", "2", "1"},             // signed bounds
		{"0..1/2/1/1", "0", "1/2", "1"},       // canonical frac-hi integral step
	}
	for _, tc := range cases {
		ss, err := ParseSpaceSpec("sweep(fsquad,loss=" + tc.in + ")")
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		rg := ss.Params[0].Range
		if rg.Lo.RatString() != tc.lo || rg.Hi.RatString() != tc.hi || rg.Step.RatString() != tc.step {
			t.Errorf("%q = (%s, %s, %s), want (%s, %s, %s)", tc.in,
				rg.Lo.RatString(), rg.Hi.RatString(), rg.Step.RatString(), tc.lo, tc.hi, tc.step)
		}
	}
}

func TestParseSpaceSpecRejects(t *testing.T) {
	bad := []string{
		"",
		"nsquad(3)",                         // not a sweep
		"sweep",                             // no parens
		"sweep()",                           // no scenario
		"sweep(nsquad",                      // unbalanced
		"sweep(nsquad,3)",                   // positional arg
		"sweep(nsquad,loss=)",               // empty value
		"sweep(nsquad,loss=0..1,loss=0..1)", // duplicate
		"sweep(nsquad,loss=1..0)",           // inverted range
		"sweep(nsquad,loss=0..1/0)",         // zero step
		"sweep(nsquad,loss=0..1..2)",        // two '..'
		"sweep(nsquad,loss=0..1/2/3/4/5)",   // too many tokens
		"sweep(nsquad,loss=0..x)",           // not a number
		"sweep(nsquad,loss=0..1000000/1/1000000)", // over MaxRangeValues
		"sweep(nsquad,(loss)=1)",                  // nested parens
	}
	for _, spec := range bad {
		if _, err := ParseSpaceSpec(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpaceSpec(%q) err = %v, want ErrBadSpec", spec, err)
		}
	}
}

func TestResolveSpaceEnumeratesCanonicalInstances(t *testing.T) {
	rs, err := Default().ResolveSpace("sweep(nsquad, loss=0.0..0.5/0.1, n=2)")
	if err != nil {
		t.Fatal(err)
	}
	insts := rs.Instances()
	if len(insts) != 6 {
		t.Fatalf("instances = %d, want 6 (loss 0, 1/10, ..., 1/2)", len(insts))
	}
	wantLoss := []string{"0", "1/10", "1/5", "3/10", "2/5", "1/2"}
	for i, inst := range insts {
		if inst.Assignment["loss"] != wantLoss[i] {
			t.Errorf("instance %d loss = %q, want %q", i, inst.Assignment["loss"], wantLoss[i])
		}
		want := "nsquad(n=2,loss=" + wantLoss[i] + ",improved=false)"
		if inst.Canonical != want {
			t.Errorf("instance %d canonical = %q, want %q", i, inst.Canonical, want)
		}
		// Each canonical spec must itself resolve (and be a fixed point)
		// — it is the engine-cache key the service shares engines under.
		if round, err := Default().Canonical(inst.Canonical); err != nil || round != inst.Canonical {
			t.Errorf("instance %d canonical round trip: %q → (%q, %v)", i, inst.Canonical, round, err)
		}
	}
}

func TestResolveSpaceCanonicalFixedPoint(t *testing.T) {
	specs := []string{
		"sweep(nsquad, loss=0.0..0.5/0.1, n=2)",
		"sweep(fsquad,loss=0..1/2/1/10,improved=true)",
		"sweep(random,seed=1..3,depth=2)",
		"sweep(figure1)", // degenerate one-point space
		"sweep(that,eps=1/20..1/4/1/20)",
	}
	for _, spec := range specs {
		rs, err := Default().ResolveSpace(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		canonical := rs.Canonical()
		again, err := Default().ResolveSpace(canonical)
		if err != nil {
			t.Errorf("canonical %q of %q does not resolve: %v", canonical, spec, err)
			continue
		}
		if round := again.Canonical(); round != canonical {
			t.Errorf("canonical not a fixed point: %q → %q → %q", spec, canonical, round)
		}
		if again.Size() != rs.Size() {
			t.Errorf("%q: canonical resolves to %d instances, original to %d", spec, again.Size(), rs.Size())
		}
	}
}

func TestResolveSpaceErrors(t *testing.T) {
	cases := []struct {
		spec string
		want error
	}{
		{"sweep(nosuch,loss=0..1)", ErrUnknownScenario},
		{"sweep(nsquad,bogus=0..1)", ErrBadSpec},    // undeclared param
		{"sweep(nsquad,improved=0..1)", ErrBadSpec}, // bool cannot sweep
		{"sweep(nsquad,n=2..3/1/2)", ErrBadSpec},    // int needs integral step
		{"sweep(random,seed=1..5000)", ErrBadSpec},  // over MaxRangeValues
	}
	for _, tc := range cases {
		if _, err := Default().ResolveSpace(tc.spec); !errors.Is(err, tc.want) {
			t.Errorf("ResolveSpace(%q) err = %v, want %v", tc.spec, err, tc.want)
		}
	}
}

func TestResolveSpaceAssignmentCapCombinatorial(t *testing.T) {
	// Each range is small, but the product exceeds MaxSpaceAssignments.
	_, err := Default().ResolveSpace("sweep(random,seed=1..100,depth=1..10,branch=1..8)")
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "assignments") {
		t.Fatalf("combinatorial cap err = %v", err)
	}
}

// intScenario registers a metadata-only scenario with one int
// parameter (default 0) per name, in the given declared order.
func intScenario(t *testing.T, names ...string) *Registry {
	t.Helper()
	sc := Scenario{Name: "grid", Doc: "x", Build: nilBuildStub}
	for _, n := range names {
		sc.Params = append(sc.Params, Param{Name: n, Kind: KindInt, Default: "0"})
	}
	r := New()
	if err := r.Register(sc); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResolveSpaceAssignmentCapOverflow: seven parameters swept over
// MaxRangeValues values each enumerate 512^7 = 2^63 assignments, a
// product that wraps a 64-bit int to its minimum. The cap must refuse
// the space from a count that stops growing once past the bound.
func TestResolveSpaceAssignmentCapOverflow(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	r := intScenario(t, names...)
	spec := "sweep(grid"
	for _, n := range names {
		spec += "," + n + "=0..511"
	}
	_, err := r.ResolveSpace(spec + ")")
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "enumerates at least 262144 assignments") {
		t.Fatalf("overflowing cap err = %v", err)
	}
}

// TestSpaceEnumeration: the first declared swept parameter varies
// slowest, options run in progression order, and each assignment
// renders sorted by parameter name whatever the declared order.
func TestSpaceEnumeration(t *testing.T) {
	rs, err := intScenario(t, "y", "x").ResolveSpace("sweep(grid,x=0..1,y=0..2)")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, inst := range rs.Instances() {
		got = append(got, inst.Assignment.String()+" "+inst.Canonical)
	}
	want := []string{
		"x=0,y=0 grid(y=0,x=0)", "x=1,y=0 grid(y=0,x=1)",
		"x=0,y=1 grid(y=1,x=0)", "x=1,y=1 grid(y=1,x=1)",
		"x=0,y=2 grid(y=2,x=0)", "x=1,y=2 grid(y=2,x=1)",
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("enumeration:\n got %q\nwant %q", got, want)
	}
}

// TestSpaceValidation: every choice of a space is named, distinct and
// non-empty. Registration refuses an unnamed parameter, and the space
// grammar refuses a repeated or an empty range.
func TestSpaceValidation(t *testing.T) {
	tests := []struct {
		name string
		err  func() error
	}{
		{"empty name", func() error {
			return New().Register(Scenario{Name: "grid", Doc: "x", Build: nilBuildStub,
				Params: []Param{{Name: "", Kind: KindInt, Default: "0"}}})
		}},
		{"duplicate", func() error {
			_, err := intScenario(t, "x").ResolveSpace("sweep(grid,x=0..1,x=2..3)")
			return err
		}},
		{"no options", func() error {
			_, err := intScenario(t, "x").ResolveSpace("sweep(grid,x=1..0)")
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.err(); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestForEachAssignmentStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	count := 0
	err := forEachAssignment([]choice{{name: "x", options: []string{"0", "1", "2"}}}, func(Assignment) error {
		if count++; count == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || count != 2 {
		t.Fatalf("err=%v count=%d", err, count)
	}
}

func TestRegisterRejectsSweepNameAndBadExamples(t *testing.T) {
	r := New()
	if err := r.Register(Scenario{Name: "sweep", Doc: "x", Build: nilBuildStub}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("reserved name err = %v", err)
	}
	if err := r.Register(Scenario{Name: "good", Doc: "x", Build: nilBuildStub,
		Sweep: "sweep(other,p=0..1)"}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("mismatched sweep example err = %v", err)
	}
	if err := r.Register(Scenario{Name: "good", Doc: "x", Build: nilBuildStub,
		Sweep: "not a sweep"}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unparseable sweep example err = %v", err)
	}
}

// TestBuiltinSweepExamplesResolve: every advertised sweep example must
// resolve against the registry that advertises it — the catalog can
// never ship a dead example.
func TestBuiltinSweepExamplesResolve(t *testing.T) {
	for _, sc := range Default().Scenarios() {
		if sc.Sweep == "" {
			continue
		}
		rs, err := Default().ResolveSpace(sc.Sweep)
		if err != nil {
			t.Errorf("%s sweep example %q: %v", sc.Name, sc.Sweep, err)
			continue
		}
		if rs.Size() < 2 {
			t.Errorf("%s sweep example %q enumerates %d assignments; examples should sweep", sc.Name, sc.Sweep, rs.Size())
		}
	}
}
