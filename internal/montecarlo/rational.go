// Exact-rational Hoeffding machinery. The float64 hoeffdingRadius is
// fine for in-process cross-validation, but a radius that travels the
// wire must round-trip through JSON without drift and must be identical
// on every platform. RadiusRat therefore computes a *rational upper
// bound* on the true radius sqrt(ln(2/δ)/(2n)) using only integer
// arithmetic: ln is bounded above by an argument-reduced atanh series
// with an explicit remainder term, sqrt by an integer-sqrt ceiling.
// Over-estimating the radius only widens the interval, so soundness of
// the (ε, δ) guarantee is preserved while every byte of the wire form
// is a deterministic function of (n, δ). The ln(2/δ) series dominates
// the cost and depends on δ alone, so it lives in a Confidence that
// derives it once for all the radii at that δ.
package montecarlo

import (
	"fmt"
	"math/big"
	"sync"
)

// ln2Upper is a rational upper bound on ln 2, accurate to 1e-18:
// ln 2 = 0.693147180559945309417... < 0.693147180559945310 =
// ln2UpperNum / 10^18.
var (
	ln2UpperNum = big.NewInt(693147180559945310)
	ln2UpperDen = big.NewInt(1e18)
)

var (
	ratOne = big.NewRat(1, 1)
	ratTwo = big.NewRat(2, 1)
)

// roundUpDyadic returns the smallest multiple of 2^-bits that is ≥ x
// (x must be non-negative). Dyadic rounding keeps wire strings compact:
// the raw series/sqrt bounds have huge denominators, the rounded bound
// has denominator at most 2^bits.
func roundUpDyadic(x *big.Rat, bits uint) *big.Rat {
	scale := new(big.Int).Lsh(big.NewInt(1), bits)
	num := new(big.Int).Mul(x.Num(), scale)
	q, rem := new(big.Int).QuoRem(num, x.Denom(), new(big.Int))
	if rem.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	return new(big.Rat).SetFrac(q, scale)
}

// lnUpper returns a rational upper bound on ln x for x ≥ 1, rounded up
// to 2^-48 granularity. Argument reduction writes x = 2^m · r with
// r ∈ [1, 2), so ln x = m·ln2 + ln r; ln r comes from the atanh series
// ln r = 2·Σ y^(2k+1)/(2k+1) with y = (r-1)/(r+1) ∈ [0, 1/3), truncated
// after the first term whose successor y^(2K+3) falls below 2^-64, with
// the geometric remainder bound y^(2K+3)/(1-y²) added back on top.
//
// With y = p/q the whole bound is one fraction, evaluated in integer
// arithmetic over the common denominator q^(2K+1)·L·(q²-p²), where L
// is the product of the odd divisors 1·3·…·(2K+1): no intermediate
// rational is ever normalized, and the only division is the final
// rounding. The value is exactly the truncated series plus its tail
// bound, so the rounded result does not depend on how it is evaluated.
func lnUpper(x *big.Rat) *big.Rat { return lnUpperBits(x, 48) }

// lnUpperBits is lnUpper rounded up to 2^-bits granularity instead.
func lnUpperBits(x *big.Rat, bits uint) *big.Rat {
	a, b := x.Num(), x.Denom()
	// m = ⌊log2 x⌋: the largest m with b·2^m ≤ a.
	m := a.BitLen() - b.BitLen()
	bm := new(big.Int).Lsh(b, uint(m))
	if bm.Cmp(a) > 0 {
		m--
		bm.Rsh(bm, 1)
	}
	// r = a/(b·2^m), so y = (r-1)/(r+1) = (a - b·2^m)/(a + b·2^m).
	p := new(big.Int).Sub(a, bm)
	q := new(big.Int).Add(a, bm)

	// num/den is the truncated series plus its tail, before doubling.
	num, den := new(big.Int), big.NewInt(1)
	if p.Sign() > 0 {
		p2 := new(big.Int).Mul(p, p)
		q2 := new(big.Int).Mul(q, q)
		// K: the first k whose y^(2k+3) is below 2^-64. pow[j] holds
		// (p^(2j+1), q^(2j+1)) for j = 0 … K+1.
		type power struct{ p, q *big.Int }
		pow := []power{{p, q}}
		for {
			last := pow[len(pow)-1]
			next := power{new(big.Int).Mul(last.p, p2), new(big.Int).Mul(last.q, q2)}
			pow = append(pow, next)
			if new(big.Int).Lsh(next.p, 64).Cmp(next.q) < 0 {
				break
			}
		}
		k := len(pow) - 2 // K
		odd := func(j int) *big.Int { return big.NewInt(int64(2*j + 1)) }
		l := big.NewInt(1) // L = 1·3·…·(2K+1)
		for j := 1; j <= k; j++ {
			l.Mul(l, odd(j))
		}
		gap := new(big.Int).Sub(q2, p2) // q² - p²
		// Σ_j y^(2j+1)/(2j+1) = Σ_j p^(2j+1)·q^(2K-2j)·(L/(2j+1)) / (q^(2K+1)·L);
		// q^(2K-2j) = q^(2K+1)/q^(2j+1).
		t := new(big.Int)
		for j := 0; j <= k; j++ {
			t.Quo(pow[k].q, pow[j].q)
			t.Mul(t, pow[j].p)
			t.Mul(t, new(big.Int).Quo(l, odd(j)))
			num.Add(num, t)
		}
		// Bring the series over (q² - p²) and add the tail
		// y^(2K+3)/(1-y²) = p^(2K+3)·L / (q^(2K+1)·L·(q²-p²)).
		num.Mul(num, gap)
		num.Add(num, t.Mul(pow[k+1].p, l))
		den.Mul(pow[k].q, l)
		den.Mul(den, gap)
	}
	// ln x ≤ 2·num/den + m·ln2Upper; round up to a multiple of 2^-bits:
	// ⌈(2·num·10^18 + m·ln2UpperNum·den)·2^bits / (den·10^18)⌉ / 2^bits.
	num.Mul(num, ln2UpperDen)
	num.Lsh(num, 1)
	if m > 0 {
		num.Add(num, new(big.Int).Mul(new(big.Int).Mul(big.NewInt(int64(m)), ln2UpperNum), den))
	}
	num.Lsh(num, bits)
	den.Mul(den, ln2UpperDen)
	quo, rem := num.QuoRem(num, den, new(big.Int))
	if rem.Sign() != 0 {
		quo.Add(quo, big.NewInt(1))
	}
	return new(big.Rat).SetFrac(quo, new(big.Int).Lsh(big.NewInt(1), bits))
}

// sqrtUpper returns a rational upper bound on sqrt(x) for x ≥ 0:
// sqrt(a/b) ≤ ⌈sqrt(a·b)⌉ / b, with the integer square-root ceiling
// taken via big.Int.Sqrt.
func sqrtUpper(x *big.Rat) *big.Rat {
	if x.Sign() <= 0 {
		return new(big.Rat)
	}
	ab := new(big.Int).Mul(x.Num(), x.Denom())
	s := new(big.Int).Sqrt(ab)
	if new(big.Int).Mul(s, s).Cmp(ab) < 0 {
		s.Add(s, big.NewInt(1))
	}
	return new(big.Rat).SetFrac(s, x.Denom())
}

// validDelta reports whether delta is a usable confidence parameter.
func validDelta(delta *big.Rat) bool {
	return delta != nil && delta.Sign() > 0 && delta.Cmp(ratOne) < 0
}

// Confidence is a CI failure probability δ together with the upper
// bound on ln(2/δ) that every radius and sample size at δ starts from.
// That bound is the costly step of the Hoeffding machinery (a series
// summed in big integers), and it depends on δ alone. A Confidence
// computes it at most once, on first use, so a request that fixes δ
// pays for it once however many estimates it builds. It lives as long
// as its owner (one request), never in a process-wide cache. A
// Confidence is safe for concurrent use. δ must not be mutated after
// NewConfidence.
type Confidence struct {
	delta *big.Rat
	once  sync.Once
	ln    *big.Rat // lnUpper(2/δ); nil when δ is not in (0, 1)
}

// NewConfidence returns the confidence level 1-δ. A degenerate δ (nil,
// or outside (0, 1)) is accepted: its radii are the trivial 1 and its
// SampleSize reports the error.
func NewConfidence(delta *big.Rat) *Confidence {
	return &Confidence{delta: delta}
}

// Delta returns δ.
func (c *Confidence) Delta() *big.Rat { return c.delta }

// lnBound returns the shared upper bound on ln(2/δ), nil for a
// degenerate δ. Callers must not mutate it.
func (c *Confidence) lnBound() *big.Rat {
	c.once.Do(func() {
		if validDelta(c.delta) {
			c.ln = lnUpper(new(big.Rat).Quo(ratTwo, c.delta))
		}
	})
	return c.ln
}

// Radius is RadiusRat(n, δ), computed from the shared ln(2/δ) bound.
func (c *Confidence) Radius(n int) *big.Rat {
	if n <= 0 {
		return new(big.Rat).Set(ratOne)
	}
	ln := c.lnBound()
	if ln == nil {
		return new(big.Rat).Set(ratOne)
	}
	l := new(big.Rat).Quo(ln, big.NewRat(2*int64(n), 1))
	r := roundUpDyadic(sqrtUpper(l), 30)
	if r.Cmp(ratOne) > 0 {
		return new(big.Rat).Set(ratOne)
	}
	return r
}

// RadiusRat returns a deterministic rational upper bound on the
// two-sided Hoeffding radius sqrt(ln(2/δ)/(2n)) at confidence 1-δ,
// rounded up to 2^-30 granularity and clamped to 1 (a radius beyond 1
// is vacuous for values in [0, 1]). The bound errs only upward, so an
// interval built from it still covers the true value with probability
// at least 1-δ; and being a pure function of (n, δ) in integer
// arithmetic, it is byte-identical across platforms and round-trips
// through its RatString form losslessly. For n ≤ 0 or a degenerate δ it
// returns the trivial radius 1. It derives the ln(2/δ) bound afresh on
// every call; code building many estimates at one δ holds a Confidence
// instead.
func RadiusRat(n int, delta *big.Rat) *big.Rat {
	return NewConfidence(delta).Radius(n)
}

// maxSampleSize caps the budget SampleSize will derive; beyond this the
// request is a mistake (or an overflow), not a sampling plan.
const maxSampleSize = 1 << 31

// SampleSize returns the Hoeffding sample complexity ⌈ln(2/δ)/(2ε²)⌉:
// the number of samples after which the (rational-bound) radius at
// confidence 1-δ is at most ε. Like RadiusRat it uses the upper ln
// bound, so the returned n satisfies RadiusRat(n, δ) ≈≤ ε while never
// under-sampling.
func SampleSize(eps, delta *big.Rat) (int, error) {
	return NewConfidence(delta).SampleSize(eps)
}

// SampleSize is the package-level SampleSize(eps, δ), computed from the
// shared ln(2/δ) bound.
func (c *Confidence) SampleSize(eps *big.Rat) (int, error) {
	if eps == nil || eps.Sign() <= 0 || eps.Cmp(ratOne) >= 0 {
		return 0, fmt.Errorf("montecarlo: eps must be in (0,1), got %s", ratString(eps))
	}
	ln := c.lnBound()
	if ln == nil {
		return 0, fmt.Errorf("montecarlo: delta must be in (0,1), got %s", ratString(c.delta))
	}
	l := new(big.Rat).Quo(ln, new(big.Rat).Mul(ratTwo, new(big.Rat).Mul(eps, eps)))
	// ceil(l) for positive l.
	n := new(big.Int).Div(l.Num(), l.Denom())
	if new(big.Int).Mul(n, l.Denom()).Cmp(l.Num()) < 0 {
		n.Add(n, big.NewInt(1))
	}
	if !n.IsInt64() || n.Int64() > maxSampleSize {
		return 0, fmt.Errorf("montecarlo: (eps=%s, delta=%s) needs %s samples, beyond the %d cap",
			eps.RatString(), c.delta.RatString(), n.String(), maxSampleSize)
	}
	if n.Int64() < 1 {
		return 1, nil
	}
	return int(n.Int64()), nil
}

func ratString(x *big.Rat) string {
	if x == nil {
		return "<nil>"
	}
	return x.RatString()
}

// EstimateRat is the exact-rational form of a sampled estimate: the
// point frequency and a Hoeffding interval whose every component is a
// rational with a canonical string form, so the estimate serializes to
// the wire and back without float drift.
type EstimateRat struct {
	// P is the exact point estimate (hits/n, or a rational mean).
	P *big.Rat
	// Radius is the rational upper bound on the Hoeffding radius at the
	// estimate's confidence level.
	Radius *big.Rat
	// Lo and Hi are the interval endpoints clamped to [0, 1]: with
	// probability at least 1-δ the true value lies in [Lo, Hi].
	Lo, Hi *big.Rat
	// N is the number of (conditioning) samples behind P.
	N int
}

// NewEstimateRat builds the estimate for hits successes out of n
// conditioning samples at confidence level c. With n == 0 the
// conditioning event was never sampled and the estimate degenerates to
// the trivially sound "no information" interval 1/2 ± 1/2 = [0, 1].
func NewEstimateRat(hits, n int, c *Confidence) EstimateRat {
	if n <= 0 {
		return NewEstimateRatMean(nil, 0, c)
	}
	return NewEstimateRatMean(big.NewRat(int64(hits), int64(n)), n, c)
}

// NewEstimateRatMean builds the estimate around an exact rational mean
// p of n samples of a [0, 1]-valued variable (Hoeffding's inequality
// covers bounded means, not just frequencies). A nil p or n ≤ 0 yields
// the trivial [0, 1] interval.
func NewEstimateRatMean(p *big.Rat, n int, c *Confidence) EstimateRat {
	if p == nil || n <= 0 {
		half := big.NewRat(1, 2)
		return EstimateRat{
			P:      new(big.Rat).Set(half),
			Radius: new(big.Rat).Set(half),
			Lo:     new(big.Rat),
			Hi:     new(big.Rat).Set(ratOne),
			N:      0,
		}
	}
	e := EstimateRat{P: new(big.Rat).Set(p), Radius: c.Radius(n), N: n}
	e.Lo = new(big.Rat).Sub(e.P, e.Radius)
	if e.Lo.Sign() < 0 {
		e.Lo.SetInt64(0)
	}
	e.Hi = new(big.Rat).Add(e.P, e.Radius)
	if e.Hi.Cmp(ratOne) > 0 {
		e.Hi.Set(ratOne)
	}
	return e
}

// Contains reports whether the exact value v lies within [Lo, Hi].
func (e EstimateRat) Contains(v *big.Rat) bool {
	return v != nil && v.Cmp(e.Lo) >= 0 && v.Cmp(e.Hi) <= 0
}

// String renders the estimate in its exact wire form.
func (e EstimateRat) String() string {
	return fmt.Sprintf("%s ∈ [%s, %s] (n=%d)", e.P.RatString(), e.Lo.RatString(), e.Hi.RatString(), e.N)
}
