// Package ratutil provides small helpers over math/big.Rat used throughout
// the library.
//
// The paper's model (a finite purely probabilistic system, pps) assigns a
// rational probability to every transition, and all of the paper's numeric
// claims are exact rational identities (e.g. 99/100, 991/1000, (p-ε)/(1-ε)).
// To reproduce them without floating-point error the entire engine works in
// *big.Rat; this package collects the constructors, comparisons and
// aggregations that the rest of the code needs, with the convention that
// every function returns a freshly allocated value and never mutates its
// arguments.
package ratutil

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
)

// ErrParse is returned (wrapped) by Parse when the input is not a valid
// rational or decimal literal.
var ErrParse = errors.New("ratutil: cannot parse rational")

// R returns the rational a/b. It panics if b == 0; it is intended for
// compile-time-known constants in tests, examples and system constructions.
func R(a, b int64) *big.Rat {
	if b == 0 {
		panic("ratutil.R: zero denominator")
	}
	return big.NewRat(a, b)
}

// Int returns n as a rational.
func Int(n int64) *big.Rat { return new(big.Rat).SetInt64(n) }

// Zero returns a fresh rational equal to 0.
func Zero() *big.Rat { return new(big.Rat) }

// One returns a fresh rational equal to 1.
func One() *big.Rat { return big.NewRat(1, 1) }

// Parse converts a string such as "1/2", "3", "0.25" or "99/100" into a
// rational. Both fraction and decimal notations are accepted (big.Rat's
// SetString semantics). Whitespace is trimmed.
func Parse(s string) (*big.Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("%w: empty string", ErrParse)
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrParse, s)
	}
	return r, nil
}

// MustParse is Parse, panicking on error. For constants in tests and
// examples only.
func MustParse(s string) *big.Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Copy returns a fresh rational equal to x. Copy(nil) returns 0.
func Copy(x *big.Rat) *big.Rat {
	if x == nil {
		return new(big.Rat)
	}
	return new(big.Rat).Set(x)
}

// Add returns x + y without mutating either.
func Add(x, y *big.Rat) *big.Rat { return new(big.Rat).Add(x, y) }

// Sub returns x - y without mutating either.
func Sub(x, y *big.Rat) *big.Rat { return new(big.Rat).Sub(x, y) }

// Mul returns x * y without mutating either.
func Mul(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }

// Div returns x / y without mutating either. It panics if y is zero, like
// big.Rat.Quo.
func Div(x, y *big.Rat) *big.Rat { return new(big.Rat).Quo(x, y) }

// Sum returns the sum of xs (0 for an empty list).
func Sum(xs ...*big.Rat) *big.Rat {
	total := new(big.Rat)
	for _, x := range xs {
		total.Add(total, x)
	}
	return total
}

// Prod returns the product of xs (1 for an empty list).
func Prod(xs ...*big.Rat) *big.Rat {
	total := big.NewRat(1, 1)
	for _, x := range xs {
		total.Mul(total, x)
	}
	return total
}

// OneMinus returns 1 - x.
func OneMinus(x *big.Rat) *big.Rat { return new(big.Rat).Sub(One(), x) }

// Eq reports x == y.
func Eq(x, y *big.Rat) bool { return x.Cmp(y) == 0 }

// Less reports x < y.
func Less(x, y *big.Rat) bool { return x.Cmp(y) < 0 }

// Leq reports x <= y.
func Leq(x, y *big.Rat) bool { return x.Cmp(y) <= 0 }

// Greater reports x > y.
func Greater(x, y *big.Rat) bool { return x.Cmp(y) > 0 }

// Geq reports x >= y.
func Geq(x, y *big.Rat) bool { return x.Cmp(y) >= 0 }

// IsZero reports x == 0.
func IsZero(x *big.Rat) bool { return x.Sign() == 0 }

// bigOne is the integer 1, shared read-only by cmpOne.
var bigOne = big.NewInt(1)

// cmpOne returns the sign of x − 1 without allocating: an integer is
// compared with 1 directly, and a normalized non-integer a/b (b > 1) is
// below 1 exactly when a < b. Denom never allocates here because a
// non-integer always has an initialized denominator.
func cmpOne(x *big.Rat) int {
	if x.IsInt() {
		return x.Num().Cmp(bigOne)
	}
	return x.Num().Cmp(x.Denom())
}

// IsOne reports x == 1. It does not allocate.
func IsOne(x *big.Rat) bool { return cmpOne(x) == 0 }

// IsProb reports 0 <= x <= 1, i.e. x is a valid probability. It does not
// allocate.
func IsProb(x *big.Rat) bool { return x.Sign() >= 0 && cmpOne(x) <= 0 }

// IsPositiveProb reports 0 < x <= 1. Transition probabilities in a pps are
// required to lie in the half-open interval (0, 1]. It does not allocate.
func IsPositiveProb(x *big.Rat) bool { return x.Sign() > 0 && cmpOne(x) <= 0 }

// SumIsOne reports whether at(0) + … + at(n−1) is exactly 1, allocating
// nothing for a single term. When every term is a non-integer over one
// shared denominator d — as the products of a fixed per-message loss
// are — it compares the integer sum of the numerators with d, skipping
// the normalizing gcd of each Rat.Add; otherwise it falls back to a
// rational sum.
func SumIsOne(n int, at func(i int) *big.Rat) bool {
	switch n {
	case 0:
		return false
	case 1:
		return IsOne(at(0))
	}
	if first := at(0); !first.IsInt() {
		den := first.Denom()
		var num big.Int
		i := 0
		for ; i < n; i++ {
			x := at(i)
			if x.IsInt() || x.Denom().Cmp(den) != 0 {
				break
			}
			num.Add(&num, x.Num())
		}
		if i == n {
			return num.Cmp(den) == 0
		}
	}
	var total big.Rat
	for i := 0; i < n; i++ {
		total.Add(&total, at(i))
	}
	return IsOne(&total)
}

// Min returns a copy of the smaller of x and y.
func Min(x, y *big.Rat) *big.Rat {
	if x.Cmp(y) <= 0 {
		return Copy(x)
	}
	return Copy(y)
}

// Max returns a copy of the larger of x and y.
func Max(x, y *big.Rat) *big.Rat {
	if x.Cmp(y) >= 0 {
		return Copy(x)
	}
	return Copy(y)
}

// Float returns the nearest float64 to x.
func Float(x *big.Rat) float64 {
	f, _ := x.Float64()
	return f
}

// Format renders x as a decimal string with prec digits after the point,
// e.g. Format(R(99,100), 4) == "0.9900". Exact rationals are preferred for
// comparisons; Format is for human-readable reports.
func Format(x *big.Rat, prec int) string {
	return x.FloatString(prec)
}

// String renders x in its exact fraction form, e.g. "99/100" or "1".
func String(x *big.Rat) string {
	return x.RatString()
}
