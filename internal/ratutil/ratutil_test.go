package ratutil

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestR(t *testing.T) {
	if got := R(1, 2); got.Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("R(1,2) = %v, want 1/2", got)
	}
}

func TestRPanicsOnZeroDenominator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("R(1,0) did not panic")
		}
	}()
	R(1, 0)
}

func TestParse(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    string // RatString of expected value; "" means error
		wantErr bool
	}{
		{name: "fraction", in: "1/2", want: "1/2"},
		{name: "integer", in: "3", want: "3"},
		{name: "decimal", in: "0.25", want: "1/4"},
		{name: "paper value", in: "99/100", want: "99/100"},
		{name: "whitespace", in: "  7/8\n", want: "7/8"},
		{name: "negative", in: "-1/3", want: "-1/3"},
		{name: "zero", in: "0", want: "0"},
		{name: "empty", in: "", wantErr: true},
		{name: "garbage", in: "abc", wantErr: true},
		{name: "zero denominator", in: "1/0", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("Parse(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q) error: %v", tt.in, err)
			}
			if got.RatString() != tt.want {
				t.Fatalf("Parse(%q) = %v, want %v", tt.in, got.RatString(), tt.want)
			}
		})
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse(garbage) did not panic")
		}
	}()
	MustParse("not-a-rat")
}

func TestCopyIsFresh(t *testing.T) {
	x := R(1, 2)
	y := Copy(x)
	y.Add(y, One())
	if !Eq(x, R(1, 2)) {
		t.Fatalf("Copy aliased its argument: x mutated to %v", x)
	}
}

func TestCopyNil(t *testing.T) {
	if got := Copy(nil); !IsZero(got) {
		t.Fatalf("Copy(nil) = %v, want 0", got)
	}
}

func TestArithmeticDoesNotMutate(t *testing.T) {
	x, y := R(1, 3), R(1, 6)
	tests := []struct {
		name string
		got  *big.Rat
		want *big.Rat
	}{
		{"Add", Add(x, y), R(1, 2)},
		{"Sub", Sub(x, y), R(1, 6)},
		{"Mul", Mul(x, y), R(1, 18)},
		{"Div", Div(x, y), R(2, 1)},
	}
	for _, tt := range tests {
		if !Eq(tt.got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.name, tt.got, tt.want)
		}
	}
	if !Eq(x, R(1, 3)) || !Eq(y, R(1, 6)) {
		t.Fatalf("arguments mutated: x=%v y=%v", x, y)
	}
}

func TestSumProd(t *testing.T) {
	if got := Sum(); !IsZero(got) {
		t.Errorf("Sum() = %v, want 0", got)
	}
	if got := Prod(); !IsOne(got) {
		t.Errorf("Prod() = %v, want 1", got)
	}
	if got := Sum(R(1, 2), R(1, 3), R(1, 6)); !IsOne(got) {
		t.Errorf("Sum(1/2,1/3,1/6) = %v, want 1", got)
	}
	if got := Prod(R(1, 2), R(2, 3)); !Eq(got, R(1, 3)) {
		t.Errorf("Prod(1/2,2/3) = %v, want 1/3", got)
	}
}

func TestOneMinus(t *testing.T) {
	if got := OneMinus(R(1, 100)); !Eq(got, R(99, 100)) {
		t.Fatalf("OneMinus(1/100) = %v, want 99/100", got)
	}
}

func TestComparisons(t *testing.T) {
	a, b := R(1, 3), R(1, 2)
	if !Less(a, b) || Less(b, a) {
		t.Error("Less wrong")
	}
	if !Leq(a, b) || !Leq(a, a) || Leq(b, a) {
		t.Error("Leq wrong")
	}
	if !Greater(b, a) || Greater(a, b) {
		t.Error("Greater wrong")
	}
	if !Geq(b, a) || !Geq(a, a) || Geq(a, b) {
		t.Error("Geq wrong")
	}
	if !Eq(a, R(2, 6)) {
		t.Error("Eq should normalize")
	}
}

func TestProbPredicates(t *testing.T) {
	tests := []struct {
		in      *big.Rat
		prob    bool
		posProb bool
	}{
		{Zero(), true, false},
		{One(), true, true},
		{R(1, 2), true, true},
		{R(3, 2), false, false},
		{R(-1, 2), false, false},
	}
	for _, tt := range tests {
		if got := IsProb(tt.in); got != tt.prob {
			t.Errorf("IsProb(%v) = %v, want %v", tt.in, got, tt.prob)
		}
		if got := IsPositiveProb(tt.in); got != tt.posProb {
			t.Errorf("IsPositiveProb(%v) = %v, want %v", tt.in, got, tt.posProb)
		}
	}
}

func TestMinMax(t *testing.T) {
	a, b := R(1, 3), R(1, 2)
	if got := Min(a, b); !Eq(got, a) {
		t.Errorf("Min = %v, want 1/3", got)
	}
	if got := Max(a, b); !Eq(got, b) {
		t.Errorf("Max = %v, want 1/2", got)
	}
	// Min/Max must return copies.
	m := Min(a, b)
	m.Add(m, One())
	if !Eq(a, R(1, 3)) {
		t.Fatal("Min aliased its argument")
	}
}

func TestFormatString(t *testing.T) {
	x := R(99, 100)
	if got := Format(x, 4); got != "0.9900" {
		t.Errorf("Format = %q, want 0.9900", got)
	}
	if got := String(x); got != "99/100" {
		t.Errorf("String = %q, want 99/100", got)
	}
}

func TestFloat(t *testing.T) {
	if got := Float(R(1, 2)); got != 0.5 {
		t.Fatalf("Float(1/2) = %v, want 0.5", got)
	}
}

// Property: Add and Sub are inverses; Mul and Div are inverses for nonzero y.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(an, ad, bn, bd int32) bool {
		if ad == 0 || bd == 0 {
			return true
		}
		a := big.NewRat(int64(an), int64(ad))
		b := big.NewRat(int64(bn), int64(bd))
		return Eq(Sub(Add(a, b), b), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulDivInverse(t *testing.T) {
	f := func(an, ad, bn, bd int32) bool {
		if ad == 0 || bd == 0 || bn == 0 {
			return true
		}
		a := big.NewRat(int64(an), int64(ad))
		b := big.NewRat(int64(bn), int64(bd))
		return Eq(Div(Mul(a, b), b), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: OneMinus is an involution.
func TestQuickOneMinusInvolution(t *testing.T) {
	f := func(n, d int32) bool {
		if d == 0 {
			return true
		}
		x := big.NewRat(int64(n), int64(d))
		return Eq(OneMinus(OneMinus(x)), x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// predicateCases are the edge values every predicate property below
// covers on top of its random draws: zero (also as an uninitialized
// Rat), one, values just either side of one, negatives, large integers
// and a value whose numerator and denominator exceed one machine word.
func predicateCases() []*big.Rat {
	huge, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	return []*big.Rat{
		new(big.Rat), Zero(), One(), R(2, 2), R(1, 2), R(3, 2), R(-1, 2), R(-1, 1),
		R(126, 127), R(128, 127), Int(2), Int(1 << 62),
		new(big.Rat).SetFrac(huge, new(big.Int).Add(huge, big.NewInt(1))),
		new(big.Rat).SetFrac(new(big.Int).Add(huge, big.NewInt(1)), huge),
		new(big.Rat).SetFrac(huge, huge),
	}
}

// Property: the allocation-free predicates agree with their Cmp(One())
// definitions on random rationals (below, at and above one) and on the
// edge values.
func TestQuickPredicatesMatchCmpOne(t *testing.T) {
	agree := func(x *big.Rat) bool {
		c := x.Cmp(big.NewRat(1, 1))
		return IsOne(x) == (c == 0) &&
			IsProb(x) == (x.Sign() >= 0 && c <= 0) &&
			IsPositiveProb(x) == (x.Sign() > 0 && c <= 0)
	}
	for _, x := range predicateCases() {
		if !agree(x) {
			t.Errorf("predicates disagree with Cmp(One()) at %v", x)
		}
	}
	f := func(n, d int64) bool {
		if d == 0 {
			return true
		}
		return agree(big.NewRat(n, d)) && agree(big.NewRat(n%1000, d%1000+1001))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPredicatesDoNotAllocate pins IsOne, IsProb and IsPositiveProb at
// zero allocations: the unfold and the pps builder call them on every
// distribution entry and every edge.
func TestPredicatesDoNotAllocate(t *testing.T) {
	preds := map[string]func(*big.Rat) bool{
		"IsOne": IsOne, "IsProb": IsProb, "IsPositiveProb": IsPositiveProb,
	}
	cases := predicateCases()
	for name, pred := range preds {
		allocs := testing.AllocsPerRun(100, func() {
			for _, x := range cases {
				pred(x)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per sweep of the edge values, want 0", name, allocs)
		}
	}
}

// Property: SumIsOne agrees with an exact rational sum, on its shared-
// denominator path (sevenths, 127ths), on the mixed-denominator and
// integer fallbacks, and on a single term.
func TestSumIsOneMatchesRationalSum(t *testing.T) {
	sums := [][]*big.Rat{
		{R(3, 7), R(4, 7)}, {R(3, 7), R(3, 7)}, {R(64, 127), R(63, 127)},
		{R(1, 2), R(1, 3), R(1, 6)}, {R(1, 2), R(1, 3)}, {One()}, {R(1, 2)},
		{Zero(), One()}, {One(), Zero()}, {R(3, 2), R(-1, 2)}, {R(1, 4), R(3, 4), Zero()}, nil,
	}
	check := func(xs []*big.Rat) bool {
		return SumIsOne(len(xs), func(i int) *big.Rat { return xs[i] }) == (len(xs) > 0 && IsOne(Sum(xs...)))
	}
	for _, xs := range sums {
		if !check(xs) {
			t.Errorf("SumIsOne%v disagrees with the rational sum %v", xs, Sum(xs...))
		}
	}
	// Random splits of 1 into k parts over a shared denominator, nudged
	// off by one unit half the time.
	f := func(d uint16, cuts [4]uint16, nudge bool) bool {
		den := int64(d%500) + 2
		left := den
		var xs []*big.Rat
		for _, c := range cuts {
			part := int64(c)%left + 1
			if part >= left {
				break
			}
			xs = append(xs, R(part, den))
			left -= part
		}
		if nudge {
			left++
		}
		xs = append(xs, R(left, den))
		return check(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
