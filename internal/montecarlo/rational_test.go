package montecarlo

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestRadiusRatPinned pins the exact wire bytes of the rational
// Hoeffding radius. These strings ARE the wire format (estimates
// serialize via RatString), so any diff here is a cross-version wire
// break and must be a deliberate, reviewed change.
func TestRadiusRatPinned(t *testing.T) {
	cases := []struct {
		n     int
		delta *big.Rat
		want  string
	}{
		{100, big.NewRat(1, 100), "174764757/1073741824"},
		{1000, big.NewRat(1, 100), "55265469/1073741824"},
		{64, big.NewRat(1, 20), "45570325/268435456"},
		{256, big.NewRat(1, 1000), "130827027/1073741824"},
		{1, big.NewRat(1, 2), "893948707/1073741824"},
		{10000, big.NewRat(1, 100), "4369119/268435456"},
		// Degenerate inputs: the trivial radius.
		{0, big.NewRat(1, 100), "1"},
		{-3, big.NewRat(1, 100), "1"},
		{100, nil, "1"},
		{100, big.NewRat(2, 1), "1"},
	}
	for _, c := range cases {
		if got := RadiusRat(c.n, c.delta).RatString(); got != c.want {
			t.Errorf("RadiusRat(%d, %v) = %s, want %s", c.n, c.delta, got, c.want)
		}
	}
}

// TestRadiusRatSoundAndTight: the rational radius must upper-bound the
// true radius (soundness: the interval may only widen) while staying
// within a sliver of it (usefulness: the dyadic and series round-ups
// cost well under 1e-8 absolute).
func TestRadiusRatSoundAndTight(t *testing.T) {
	deltas := []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 20), big.NewRat(1, 100), big.NewRat(1, 1000), big.NewRat(3, 7)}
	for _, delta := range deltas {
		df, _ := delta.Float64()
		for _, n := range []int{1, 2, 3, 10, 100, 1000, 65536, 1 << 20} {
			truth := math.Sqrt(math.Log(2/df) / (2 * float64(n)))
			got, _ := RadiusRat(n, delta).Float64()
			if truth > 1 {
				truth = 1
			}
			if got < truth-1e-15 {
				t.Errorf("RadiusRat(%d, %s) = %.12f under-estimates true radius %.12f", n, delta.RatString(), got, truth)
			}
			if got > truth+1e-8 {
				t.Errorf("RadiusRat(%d, %s) = %.12f is loose vs true radius %.12f", n, delta.RatString(), got, truth)
			}
		}
	}
}

// TestRadiusRatRoundTrips: the radius must survive the wire. RatString
// is the serialization used by EstimateDoc, so parse(format(r)) == r.
func TestRadiusRatRoundTrips(t *testing.T) {
	r := RadiusRat(1060, big.NewRat(1, 100))
	s := r.RatString()
	back, ok := new(big.Rat).SetString(s)
	if !ok || back.Cmp(r) != 0 {
		t.Fatalf("RatString round trip lost precision: %s -> %v", s, back)
	}
	// And through JSON, the way the service ships it.
	var boxed string
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &boxed); err != nil {
		t.Fatal(err)
	}
	if boxed != s {
		t.Fatalf("JSON round trip drifted: %q -> %q", s, boxed)
	}
}

func TestSampleSize(t *testing.T) {
	cases := []struct {
		eps, delta *big.Rat
		want       int
	}{
		{big.NewRat(1, 20), big.NewRat(1, 100), 1060},
		{big.NewRat(1, 10), big.NewRat(1, 20), 185},
		{big.NewRat(1, 100), big.NewRat(1, 100), 26492},
	}
	for _, c := range cases {
		n, err := SampleSize(c.eps, c.delta)
		if err != nil {
			t.Fatalf("SampleSize(%s, %s): %v", c.eps.RatString(), c.delta.RatString(), err)
		}
		if n != c.want {
			t.Errorf("SampleSize(%s, %s) = %d, want %d", c.eps.RatString(), c.delta.RatString(), n, c.want)
		}
		// The derived budget must actually achieve the target half-width.
		if r := RadiusRat(n, c.delta); r.Cmp(c.eps) > 0 {
			t.Errorf("RadiusRat(%d, %s) = %s exceeds eps %s", n, c.delta.RatString(), r.RatString(), c.eps.RatString())
		}
	}

	for _, bad := range []struct{ eps, delta *big.Rat }{
		{nil, big.NewRat(1, 100)},
		{big.NewRat(0, 1), big.NewRat(1, 100)},
		{big.NewRat(1, 1), big.NewRat(1, 100)},
		{big.NewRat(1, 20), nil},
		{big.NewRat(1, 20), big.NewRat(1, 1)},
		{big.NewRat(1, 1000000), big.NewRat(1, 100)}, // over the derived-budget cap
	} {
		if _, err := SampleSize(bad.eps, bad.delta); err == nil {
			t.Errorf("SampleSize(%v, %v) accepted invalid parameters", bad.eps, bad.delta)
		}
	}
}

func TestEstimateRat(t *testing.T) {
	delta := big.NewRat(1, 100)
	e := NewEstimateRat(30, 100, NewConfidence(delta))
	if got := e.P.RatString(); got != "3/10" {
		t.Fatalf("P = %s, want 3/10", got)
	}
	if e.N != 100 {
		t.Fatalf("N = %d, want 100", e.N)
	}
	if want := RadiusRat(100, delta); e.Radius.Cmp(want) != 0 {
		t.Fatalf("Radius = %s, want %s", e.Radius.RatString(), want.RatString())
	}
	if lo := new(big.Rat).Sub(e.P, e.Radius); e.Lo.Cmp(lo) != 0 {
		t.Fatalf("Lo = %s, want P-Radius = %s", e.Lo.RatString(), lo.RatString())
	}
	if !e.Contains(big.NewRat(3, 10)) || !e.Contains(e.Lo) || !e.Contains(e.Hi) {
		t.Fatal("interval must contain its point estimate and both endpoints")
	}
	if e.Contains(nil) {
		t.Fatal("nil value must not be 'contained'")
	}

	// Clamping: an estimate near the boundary keeps [Lo, Hi] ⊆ [0, 1].
	edge := NewEstimateRat(0, 100, NewConfidence(delta))
	if edge.Lo.Sign() != 0 {
		t.Fatalf("Lo = %s, want clamped to 0", edge.Lo.RatString())
	}
	full := NewEstimateRat(100, 100, NewConfidence(delta))
	if full.Hi.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("Hi = %s, want clamped to 1", full.Hi.RatString())
	}

	// n == 0: the trivially sound "no information" interval [0, 1].
	empty := NewEstimateRat(0, 0, NewConfidence(delta))
	if empty.Lo.Sign() != 0 || empty.Hi.Cmp(big.NewRat(1, 1)) != 0 || empty.N != 0 {
		t.Fatalf("empty estimate = %v, want 1/2 ± 1/2 over [0,1]", empty)
	}
	if empty.P.Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("empty P = %s, want 1/2", empty.P.RatString())
	}

	// The mean form: Hoeffding covers [0,1]-valued means, not just
	// frequencies.
	mean := NewEstimateRatMean(big.NewRat(5, 8), 64, NewConfidence(big.NewRat(1, 20)))
	if mean.P.RatString() != "5/8" || mean.N != 64 {
		t.Fatalf("mean estimate = %v", mean)
	}
	if want := RadiusRat(64, big.NewRat(1, 20)); mean.Radius.Cmp(want) != 0 {
		t.Fatalf("mean Radius = %s, want %s", mean.Radius.RatString(), want.RatString())
	}
}

// TestModelSamplerEquivalence: a Sampler derived from a shared Model
// must sample the identical run sequence as the compat NewSampler path,
// and two Samplers over one Model must not perturb each other.
func TestModelSamplerEquivalence(t *testing.T) {
	sys := fsSystem(t)
	model := NewModel(sys)
	a := NewSampler(sys, 42)
	b := model.Sampler(42)
	c := model.Sampler(7) // interleaved third cursor must not disturb b
	for i := 0; i < 200; i++ {
		ra, rb := a.SampleRun(), b.SampleRun()
		c.SampleRun()
		if ra != rb {
			t.Fatalf("sample %d: NewSampler drew run %d, Model.Sampler drew %d", i, ra, rb)
		}
	}
}

// lnUpperRat is lnUpperBits's bound evaluated term by term in big.Rat
// arithmetic — the reference its integer evaluation must match exactly.
func lnUpperRat(x *big.Rat, bits uint) *big.Rat {
	r := new(big.Rat).Set(x)
	m := int64(0)
	for r.Cmp(ratTwo) >= 0 {
		r.Quo(r, ratTwo)
		m++
	}
	y := new(big.Rat).Sub(r, ratOne)
	y.Quo(y, new(big.Rat).Add(r, ratOne))
	y2 := new(big.Rat).Mul(y, y)
	sum := new(big.Rat)
	term := new(big.Rat).Set(y) // y^(2k+1)
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 64))
	for k := int64(0); term.Sign() > 0; k++ {
		sum.Add(sum, new(big.Rat).Quo(term, big.NewRat(2*k+1, 1)))
		term.Mul(term, y2)
		if term.Cmp(tol) < 0 {
			break
		}
	}
	sum.Add(sum, new(big.Rat).Quo(term, new(big.Rat).Sub(ratOne, y2)))
	sum.Mul(sum, ratTwo)
	if m > 0 {
		sum.Add(sum, new(big.Rat).Mul(big.NewRat(m, 1), big.NewRat(693147180559945310, 1e18)))
	}
	return roundUpDyadic(sum, bits)
}

// TestLnUpperMatchesRatSeries: the integer evaluation of the ln bound
// equals the term-by-term big.Rat evaluation exactly, on powers of two
// (y = 0), on 2/δ for the δ a request may carry, and on random
// rationals with numerators and denominators up to 2^100 — at the
// wire's 2^-48 rounding, and at 2^-256, fine enough that a slip in the
// series or its 2^-64-sized tail cannot round away.
func TestLnUpperMatchesRatSeries(t *testing.T) {
	xs := []*big.Rat{big.NewRat(1, 1), big.NewRat(2, 1), big.NewRat(4, 1), big.NewRat(3, 2), big.NewRat(1<<62, 1),
		big.NewRat(2_000_000_000, 1), big.NewRat(200, 1), big.NewRat(1_000_001, 1_000_000), big.NewRat(14, 3)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		den := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(100))))
		den.Add(den, big.NewInt(1))
		num := new(big.Int).Rand(rng, den) // δ = num/den ∈ [0, 1)
		if num.Sign() == 0 {
			continue
		}
		xs = append(xs, new(big.Rat).Quo(ratTwo, new(big.Rat).SetFrac(num, den)))
	}
	for _, x := range xs {
		for _, bits := range []uint{48, 256} {
			if got, want := lnUpperBits(x, bits), lnUpperRat(x, bits); got.Cmp(want) != 0 {
				t.Errorf("lnUpperBits(%s, %d) = %s, the big.Rat series gives %s", x.RatString(), bits, got.RatString(), want.RatString())
			}
		}
	}
}

// refRadius is the radius computed the way RadiusRat computed it before
// the ln(2/δ) bound moved into Confidence: a fresh big.Rat series,
// divided in place.
func refRadius(n int, delta *big.Rat) *big.Rat {
	if n <= 0 || !validDelta(delta) {
		return big.NewRat(1, 1)
	}
	l := lnUpperRat(new(big.Rat).Quo(ratTwo, delta), 48)
	l.Quo(l, big.NewRat(2*int64(n), 1))
	r := roundUpDyadic(sqrtUpper(l), 30)
	if r.Cmp(ratOne) > 0 {
		return big.NewRat(1, 1)
	}
	return r
}

// TestConfidenceMatchesRadiusRat: one Confidence per δ, reused across a
// grid of sample counts the way one request reuses it across its slots,
// yields exactly the bytes of the uncached RadiusRat (and of the
// pre-Confidence computation) at every (n, δ), in either order of first
// use, and leaves SampleSize unchanged.
func TestConfidenceMatchesRadiusRat(t *testing.T) {
	var ns []int
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 100, 1000, 4096, 1<<20)
	deltas := []*big.Rat{
		big.NewRat(1, 100), big.NewRat(1, 3), big.NewRat(99, 100), big.NewRat(1, 1_000_000_000),
		big.NewRat(3, 7), big.NewRat(2, 11), big.NewRat(13, 1000), big.NewRat(7, 9),
	}
	epss := []*big.Rat{big.NewRat(1, 20), big.NewRat(1, 10), big.NewRat(1, 3), big.NewRat(2, 7)}
	for _, delta := range deltas {
		forward, backward := NewConfidence(delta), NewConfidence(delta)
		for i, n := range ns {
			want := RadiusRat(n, delta).RatString()
			if ref := refRadius(n, delta).RatString(); ref != want {
				t.Fatalf("RadiusRat(%d, %s) = %s, the pre-Confidence computation gives %s", n, delta.RatString(), want, ref)
			}
			if got := forward.Radius(n).RatString(); got != want {
				t.Errorf("Confidence(%s).Radius(%d) = %s, RadiusRat gives %s", delta.RatString(), n, got, want)
			}
			m := ns[len(ns)-1-i]
			if got, want := backward.Radius(m).RatString(), RadiusRat(m, delta).RatString(); got != want {
				t.Errorf("Confidence(%s).Radius(%d) = %s, RadiusRat gives %s", delta.RatString(), m, got, want)
			}
		}
		for _, eps := range epss {
			want, wantErr := SampleSize(eps, delta)
			got, err := forward.SampleSize(eps)
			if got != want || (err == nil) != (wantErr == nil) {
				t.Errorf("Confidence(%s).SampleSize(%s) = (%d, %v), SampleSize gives (%d, %v)",
					delta.RatString(), eps.RatString(), got, err, want, wantErr)
			}
		}
		// The estimate constructors read the same radius.
		if got, want := NewEstimateRat(3, 17, forward).Radius.RatString(), RadiusRat(17, delta).RatString(); got != want {
			t.Errorf("NewEstimateRat radius at δ=%s = %s, want %s", delta.RatString(), got, want)
		}
	}
	// Degenerate δ: trivial radius, SampleSize's delta error.
	for _, delta := range []*big.Rat{nil, big.NewRat(0, 1), big.NewRat(1, 1), big.NewRat(3, 2)} {
		c := NewConfidence(delta)
		if got := c.Radius(10).RatString(); got != "1" {
			t.Errorf("Confidence(%v).Radius(10) = %s, want 1", delta, got)
		}
		_, err := c.SampleSize(big.NewRat(1, 10))
		_, want := SampleSize(big.NewRat(1, 10), delta)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Confidence(%v).SampleSize err = %v, SampleSize err = %v", delta, err, want)
		}
	}
}

// TestSampleRunFollowsNodePath: SampleRun makes exactly the draws
// SampleNodePath makes, so two samplers with one seed land on the same
// run whichever of the two each calls.
func TestSampleRunFollowsNodePath(t *testing.T) {
	model := NewModel(fsSystem(t))
	runs, paths := model.Sampler(11), model.Sampler(11)
	for i := 0; i < 200; i++ {
		path := paths.SampleNodePath()
		if got, want := runs.SampleRun(), model.leafRun[path[len(path)-1]]; got != want {
			t.Fatalf("sample %d: SampleRun drew run %d, SampleNodePath ended in run %d", i, got, want)
		}
	}
}
