package pps

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"pak/internal/ratutil"
	"pak/internal/runset"
)

// Kernel ≡ naive property tests: every public measure operation must be
// byte-identical (RatString) to the direct big.Rat reference fold, on
// both kernel tiers. The naive fold is MeasureNaive; the conditional
// references divide naive measures the way the pre-kernel code did.

// naiveCond is the reference µ(a|b): materialize a∩b, divide measures.
func naiveCond(sys *System, a, b *runset.Set) (string, bool) {
	mb := sys.MeasureNaive(b)
	if mb.Sign() == 0 {
		return "", false
	}
	return ratutil.Div(sys.MeasureNaive(a.Intersect(b)), mb).RatString(), true
}

// checkKernelAgainstNaive cross-checks every kernel operation against
// the reference fold on one (system, a, b) triple.
func checkKernelAgainstNaive(t *testing.T, sys *System, a, b *runset.Set, label string) {
	t.Helper()
	if got, want := sys.Measure(a).RatString(), sys.MeasureNaive(a).RatString(); got != want {
		t.Fatalf("%s: Measure = %s, naive %s", label, got, want)
	}
	if got, want := sys.MeasureIntersect(a, b).RatString(), sys.MeasureNaive(a.Intersect(b)).RatString(); got != want {
		t.Fatalf("%s: MeasureIntersect = %s, naive %s", label, got, want)
	}
	cond, okC := sys.Cond(a, b)
	wantCond, wantOK := naiveCond(sys, a, b)
	if okC != wantOK {
		t.Fatalf("%s: Cond ok = %v, naive %v", label, okC, wantOK)
	}
	if okC && cond.RatString() != wantCond {
		t.Fatalf("%s: Cond = %s, naive %s", label, cond.RatString(), wantCond)
	}
	if !okC && !b.IsEmpty() {
		t.Fatalf("%s: Cond failed on a non-empty conditioning event", label)
	}
	joint, okJ := sys.CondIntersect(a, b, b)
	if !b.IsEmpty() {
		wantJoint, _ := naiveCond(sys, a.Intersect(b), b)
		if !okJ || joint.RatString() != wantJoint {
			t.Fatalf("%s: CondIntersect = (%v, %v), naive %s", label, joint, okJ, wantJoint)
		}
	} else if okJ {
		t.Fatalf("%s: CondIntersect succeeded on an empty conditioning event", label)
	}
}

// edgeEvents are the boundary events every system is checked at: empty,
// full, and each singleton.
func checkKernelEdgeEvents(t *testing.T, sys *System, label string) {
	t.Helper()
	empty := sys.NewSet()
	full := sys.NewSet().Complement()
	if got := sys.Measure(empty).RatString(); got != "0" {
		t.Fatalf("%s: µ(∅) = %s", label, got)
	}
	if got := sys.Measure(full).RatString(); got != "1" {
		t.Fatalf("%s: µ(R) = %s", label, got)
	}
	if !ratutil.IsOne(sys.TotalMeasure()) {
		t.Fatalf("%s: TotalMeasure = %s", label, sys.TotalMeasure().RatString())
	}
	if _, ok := sys.Cond(full, empty); ok {
		t.Fatalf("%s: Cond(·|∅) succeeded", label)
	}
	for r := 0; r < sys.NumRuns(); r++ {
		single := sys.NewSet()
		single.Add(r)
		if got, want := sys.Measure(single).RatString(), sys.RunProb(RunID(r)).RatString(); got != want {
			t.Fatalf("%s: µ({%d}) = %s, RunProb %s", label, r, got, want)
		}
		cond, ok := sys.Cond(single, full)
		if !ok || cond.RatString() != sys.RunProb(RunID(r)).RatString() {
			t.Fatalf("%s: µ({%d}|R) = (%v, %v)", label, r, cond, ok)
		}
	}
}

// TestKernelMatchesNaiveRandomTrees sweeps random systems and random
// events through every kernel operation against the reference fold.
func TestKernelMatchesNaiveRandomTrees(t *testing.T) {
	for sysSeed := int64(0); sysSeed < 25; sysSeed++ {
		sys, err := randomTree(sysSeed)
		if err != nil {
			t.Fatalf("seed %d: %v", sysSeed, err)
		}
		if sys.measureKernel().nums64 == nil {
			t.Fatalf("seed %d: random tree unexpectedly in the big tier", sysSeed)
		}
		checkKernelEdgeEvents(t, sys, fmt.Sprintf("seed %d", sysSeed))
		for evSeed := int64(0); evSeed < 8; evSeed++ {
			a := randomEvent(sys, evSeed)
			b := randomEvent(sys, evSeed+100)
			checkKernelAgainstNaive(t, sys, a, b, fmt.Sprintf("seed %d/ev %d", sysSeed, evSeed))
		}
	}
}

// bigTierTree builds a system whose shared denominator exceeds a
// uint64: three tree levels with distinct ~2³² prime denominators make
// D ≈ 2⁹⁶, forcing the kernel's big.Int fallback.
func bigTierTree(t *testing.T) *System {
	t.Helper()
	const (
		p1 = 4294967291 // 2³² − 5
		p2 = 4294967279
		p3 = 4294967231
	)
	b := NewBuilder("i")
	g0 := b.Init(ratutil.One(), "e", "g0")
	lvl1 := []NodeID{
		b.Child(g0, Step{Pr: ratutil.R(1, p1), Acts: []string{"a"}, Env: "e", Locals: []string{"g1a"}}),
		b.Child(g0, Step{Pr: ratutil.R(p1-1, p1), Acts: []string{"b"}, Env: "e", Locals: []string{"g1b"}}),
	}
	var lvl2 []NodeID
	for n, u := range lvl1 {
		lvl2 = append(lvl2,
			b.Child(u, Step{Pr: ratutil.R(1, p2), Acts: []string{"a"}, Env: "e", Locals: []string{fmt.Sprintf("g2a%d", n)}}),
			b.Child(u, Step{Pr: ratutil.R(p2-1, p2), Acts: []string{"b"}, Env: "e", Locals: []string{fmt.Sprintf("g2b%d", n)}}))
	}
	for n, u := range lvl2 {
		b.Child(u, Step{Pr: ratutil.R(1, p3), Acts: []string{"a"}, Env: "e", Locals: []string{fmt.Sprintf("g3a%d", n)}})
		b.Child(u, Step{Pr: ratutil.R(p3-1, p3), Acts: []string{"b"}, Env: "e", Locals: []string{fmt.Sprintf("g3b%d", n)}})
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sys
}

// TestKernelBigTier runs the same cross-checks on a system whose shared
// denominator overflows uint64, exercising the big.Int tier.
func TestKernelBigTier(t *testing.T) {
	sys := bigTierTree(t)
	k := sys.measureKernel()
	if k.numsBig == nil || k.nums64 != nil {
		t.Fatal("big-denominator system did not select the big tier")
	}
	if k.denom.IsUint64() {
		t.Fatalf("D = %s fits uint64; the tree does not force the big tier", k.denom)
	}
	checkKernelEdgeEvents(t, sys, "big tier")
	for evSeed := int64(0); evSeed < 8; evSeed++ {
		a := randomEvent(sys, evSeed)
		b := randomEvent(sys, evSeed+100)
		checkKernelAgainstNaive(t, sys, a, b, fmt.Sprintf("big tier/ev %d", evSeed))
	}
}

// TestKernelUint64TierSelected pins the fast tier on a small system.
func TestKernelUint64TierSelected(t *testing.T) {
	sys := buildDiamond(t)
	k := sys.measureKernel()
	if k.nums64 == nil || k.numsBig != nil {
		t.Fatal("small system did not select the uint64 tier")
	}
	if k.denom.String() != "2" {
		t.Fatalf("diamond D = %s, want 2", k.denom)
	}
}

// TestKernelConcurrentFirstUse hammers the lazy kernel build from many
// goroutines (run under -race): every caller must see one consistent
// kernel and identical answers.
func TestKernelConcurrentFirstUse(t *testing.T) {
	sys, err := randomTree(3)
	if err != nil {
		t.Fatal(err)
	}
	ev := randomEvent(sys, 1)
	want := sys.MeasureNaive(ev).RatString()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if got := sys.Measure(ev).RatString(); got != want {
					t.Errorf("concurrent Measure = %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Warm-path allocation pins (the kernel's raison d'être is one final
// reduction): a uint64-tier Measure allocates only the result Rat and
// the numerator it is reduced from; Cond adds nothing on top.
func TestKernelAllocsPinned(t *testing.T) {
	sys, err := randomTree(3)
	if err != nil {
		t.Fatal(err)
	}
	a := randomEvent(sys, 1)
	b := randomEvent(sys, 2)
	sys.Measure(a) // build the kernel outside the measured region

	if avg := testing.AllocsPerRun(200, func() { sys.Measure(a) }); avg > 6 {
		t.Errorf("warm Measure allocates %.1f objects/op, want ≤ 6", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sys.Cond(a, b) }); avg > 8 {
		t.Errorf("warm Cond allocates %.1f objects/op, want ≤ 8", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sys.MeasureIntersect(a, b) }); avg > 6 {
		t.Errorf("warm MeasureIntersect allocates %.1f objects/op, want ≤ 6", avg)
	}
}

// referenceRunProb is µ_T(r) folded in big.Rat along the run's edges,
// the product Build carried before its word tier existed.
func referenceRunProb(sys *System, r RunID) *big.Rat {
	pr := ratutil.One()
	for t := 0; t < sys.RunLen(r); t++ {
		pr = ratutil.Mul(pr, sys.EdgeProbShared(sys.NodeAt(r, t)))
	}
	return pr
}

// checkRunProbsMatchReference holds every stored µ_T(r) to the big.Rat
// fold, byte for byte.
func checkRunProbsMatchReference(t *testing.T, sys *System, label string) {
	t.Helper()
	for r := RunID(0); int(r) < sys.NumRuns(); r++ {
		if got, want := sys.RunProb(r).RatString(), referenceRunProb(sys, r).RatString(); got != want {
			t.Fatalf("%s: µ_T(%d) = %s, big.Rat fold %s", label, r, got, want)
		}
	}
}

// sameKernel reports whether two kernels hold the same D and scaled
// numerators in the same tier.
func sameKernel(a, b *measureKernel) bool {
	if a.denom.Cmp(b.denom) != 0 || len(a.nums64) != len(b.nums64) || len(a.numsBig) != len(b.numsBig) {
		return false
	}
	for r := range a.nums64 {
		if a.nums64[r] != b.nums64[r] {
			return false
		}
	}
	for r := range a.numsBig {
		if a.numsBig[r].Cmp(b.numsBig[r]) != 0 {
			return false
		}
	}
	return true
}

// Build carries µ_T in machine words while the products fit, and the
// kernel is built from those words when D fits too. These tests hold
// both to the big.Rat reference across the three word-tier outcomes:
// every run and D fit; every run fits but D does not; a product
// overflows mid-tree.

// TestWordProductsAllFit: on random trees every run product and D fit
// a word, so the kernel comes from the words, and it equals the kernel
// the big.Int construction derives from runPr.
func TestWordProductsAllFit(t *testing.T) {
	systems := []*System{squadLike(t, 3, "e1", "alpha", "g1"), buildDiamond(t)}
	for seed := int64(0); seed < 25; seed++ {
		sys, err := randomTree(seed)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	for i, sys := range systems {
		label := fmt.Sprintf("system %d", i)
		if sys.runWords == nil {
			t.Fatalf("%s: a run product left the word tier", label)
		}
		checkRunProbsMatchReference(t, sys, label)
		words := sys.wordKernel()
		if words == nil || words.nums64 == nil {
			t.Fatalf("%s: kernel not built from the word products", label)
		}
		if !sameKernel(words, sys.bigKernel()) {
			t.Fatalf("%s: word-built kernel differs from the big.Int construction", label)
		}
		checkKernelEdgeEvents(t, sys, label)
		if sys.runWords != nil {
			t.Fatalf("%s: word products kept after the kernel exists", label)
		}
		for evSeed := int64(0); evSeed < 4; evSeed++ {
			checkKernelAgainstNaive(t, sys, randomEvent(sys, evSeed), randomEvent(sys, evSeed+100), fmt.Sprintf("%s/ev %d", label, evSeed))
		}
	}
}

// TestWordProductsDenominatorOverflows: every run product fits a word
// (denominators 2·p₁ and 2·p₂), but D = 2·p₁·p₂ ≈ 2⁶⁵ does not, so the
// kernel falls back to the big.Int construction and its big tier.
func TestWordProductsDenominatorOverflows(t *testing.T) {
	const (
		p1 = 4294967291
		p2 = 4294967279
	)
	b := NewBuilder("i")
	for k, p := range []int64{p1, p2} {
		g := b.Init(ratutil.R(1, 2), "e", fmt.Sprintf("g0%d", k))
		b.Child(g, Step{Pr: ratutil.R(1, p), Acts: []string{"a"}, Env: "e", Locals: []string{fmt.Sprintf("g1a%d", k)}})
		b.Child(g, Step{Pr: ratutil.R(p-1, p), Acts: []string{"b"}, Env: "e", Locals: []string{fmt.Sprintf("g1b%d", k)}})
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.runWords == nil {
		t.Fatal("a run product left the word tier")
	}
	checkRunProbsMatchReference(t, sys, "D overflow")
	if sys.wordKernel() != nil {
		t.Fatal("word kernel built although D does not fit a word")
	}
	k := sys.measureKernel()
	if k.numsBig == nil || k.denom.IsUint64() {
		t.Fatalf("D = %s: kernel not in the big tier", k.denom)
	}
	if !sameKernel(k, sys.bigKernel()) {
		t.Fatal("kernel differs from the big.Int construction")
	}
	checkKernelEdgeEvents(t, sys, "D overflow")
	for evSeed := int64(0); evSeed < 4; evSeed++ {
		checkKernelAgainstNaive(t, sys, randomEvent(sys, evSeed), randomEvent(sys, evSeed+100), fmt.Sprintf("D overflow/ev %d", evSeed))
	}
}

// TestWordProductsOverflowMidTree: one initial state's subtree has
// three levels of ~2³² prime denominators, so its run products leave
// the word tier at the third level and continue in big.Rat; the other
// subtree's stay in words. Every stored product must still equal the
// big.Rat fold, and the kernel the big.Int construction.
func TestWordProductsOverflowMidTree(t *testing.T) {
	const (
		p1 = 4294967291
		p2 = 4294967279
		p3 = 4294967231
	)
	b := NewBuilder("i")
	deep := b.Init(ratutil.R(1, 2), "e", "g0a")
	level := []NodeID{deep}
	for depth, p := range []int64{p1, p2, p3} {
		var next []NodeID
		for n, u := range level {
			next = append(next,
				b.Child(u, Step{Pr: ratutil.R(1, p), Acts: []string{"a"}, Env: "e", Locals: []string{fmt.Sprintf("g%da%d", depth+1, n)}}),
				b.Child(u, Step{Pr: ratutil.R(p-1, p), Acts: []string{"b"}, Env: "e", Locals: []string{fmt.Sprintf("g%db%d", depth+1, n)}}))
		}
		level = next
	}
	shallow := b.Init(ratutil.R(1, 2), "e", "g0b")
	b.Child(shallow, Step{Pr: ratutil.R(1, 3), Acts: []string{"a"}, Env: "e", Locals: []string{"g1c"}})
	b.Child(shallow, Step{Pr: ratutil.R(2, 3), Acts: []string{"b"}, Env: "e", Locals: []string{"g1d"}})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.runWords != nil {
		t.Fatal("overflowed run products reported as word-sized")
	}
	fits := 0
	for r := RunID(0); int(r) < sys.NumRuns(); r++ {
		if sys.RunProbShared(r).Denom().IsUint64() {
			fits++
		}
	}
	if fits != 2 || sys.NumRuns() != 10 {
		t.Fatalf("%d of %d runs word-sized, want 2 of 10", fits, sys.NumRuns())
	}
	checkRunProbsMatchReference(t, sys, "mid-tree overflow")
	if !sameKernel(sys.measureKernel(), sys.bigKernel()) {
		t.Fatal("kernel differs from the big.Int construction")
	}
	checkKernelEdgeEvents(t, sys, "mid-tree overflow")
	for evSeed := int64(0); evSeed < 4; evSeed++ {
		checkKernelAgainstNaive(t, sys, randomEvent(sys, evSeed), randomEvent(sys, evSeed+100), fmt.Sprintf("mid-tree overflow/ev %d", evSeed))
	}
}
