package pak_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - exact rational vs float64 measure computation (the cost of the
//     paper-faithful exactness guarantee);
//   - the Jeffrey-decomposition path vs the direct expectation query for
//     Theorem 6.2's two sides;
//   - the price of the local-state independence check (Definition 4.1)
//     relative to the raw constraint query;
//   - unfolding a protocol vs hand-building the equivalent tree (T-hat).
//
// Run with: go test -bench=Ablation -benchmem

import (
	"testing"

	"pak"
	"pak/internal/randsys"
)

// ablationSystem builds a moderately sized random system shared by the
// measure ablations.
func ablationSystem(b *testing.B) *pak.System {
	b.Helper()
	cfg := randsys.Default(11)
	cfg.Depth = 6
	cfg.ActionTime = 3
	sys, err := randsys.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkAblationMeasureExact measures exact big.Rat event measure.
func BenchmarkAblationMeasureExact(b *testing.B) {
	sys := ablationSystem(b)
	full := sys.FullSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.Measure(full).Sign() <= 0 {
			b.Fatal("bad measure")
		}
	}
}

// BenchmarkAblationDirectExpectation computes both sides of Theorem 6.2
// with the direct engine queries.
func BenchmarkAblationDirectExpectation(b *testing.B) {
	sys := ablationSystem(b)
	fact := pak.RandPastFact(sys, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pak.NewEngine(sys)
		mu, err := e.ConstraintProb(fact, "a0", randsys.DesignatedAction)
		if err != nil {
			b.Fatal(err)
		}
		exp, err := e.ExpectedBelief(fact, "a0", randsys.DesignatedAction)
		if err != nil {
			b.Fatal(err)
		}
		if mu.Cmp(exp) != 0 {
			b.Fatal("Theorem 6.2 violated")
		}
	}
}

// BenchmarkAblationJeffreyExpectation computes the same two quantities via
// the Jeffrey decomposition (per-cell weights and posteriors); the delta
// against DirectExpectation is the cost of materializing the proof
// structure.
func BenchmarkAblationJeffreyExpectation(b *testing.B) {
	sys := ablationSystem(b)
	fact := pak.RandPastFact(sys, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pak.NewEngine(sys)
		d, err := e.Decompose(fact, "a0", randsys.DesignatedAction)
		if err != nil {
			b.Fatal(err)
		}
		if d.ConstraintProb.Cmp(d.ExpectedBelief) != 0 {
			b.Fatal("Theorem 6.2 violated")
		}
	}
}

// BenchmarkAblationConstraintOnly is the baseline engine query without the
// independence check.
func BenchmarkAblationConstraintOnly(b *testing.B) {
	sys := ablationSystem(b)
	fact := pak.RandPastFact(sys, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pak.NewEngine(sys)
		if _, err := e.ConstraintProb(fact, "a0", randsys.DesignatedAction); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWithIndependenceCheck adds the full Definition 4.1
// check over every local state; the delta against ConstraintOnly is the
// hypothesis-verification overhead.
func BenchmarkAblationWithIndependenceCheck(b *testing.B) {
	sys := ablationSystem(b)
	fact := pak.RandPastFact(sys, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pak.NewEngine(sys)
		if _, err := e.ConstraintProb(fact, "a0", randsys.DesignatedAction); err != nil {
			b.Fatal(err)
		}
		rep, err := e.LocalStateIndependence(fact, "a0", randsys.DesignatedAction)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Independent {
			b.Fatal("past fact must be independent")
		}
	}
}

// BenchmarkAblationHandBuiltThat builds T-hat directly as a tree.
func BenchmarkAblationHandBuiltThat(b *testing.B) {
	p, eps := pak.Rat(9, 10), pak.Rat(1, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pak.That(p, eps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUnfoldedThat builds the equivalent system by unfolding
// the protocol model; the delta against HandBuiltThat is the cost of the
// generic Section 2.2 construction.
func BenchmarkAblationUnfoldedThat(b *testing.B) {
	p, eps := pak.Rat(9, 10), pak.Rat(1, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pak.UnfoldThat(p, eps); err != nil {
			b.Fatal(err)
		}
	}
}
