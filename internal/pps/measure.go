package pps

// The exact-arithmetic measure kernel. Every numeric claim the engine
// makes is an exact rational identity, so Measure must stay exact — but
// the naive fold pays for that exactness per run: one allocating,
// GCD-normalizing big.Rat addition for every member of the event. The
// kernel removes the per-operation cost without giving up a single bit:
//
//   - Once per system (lazily, on first measure query) it computes the
//     shared denominator D = lcm of the runPr denominators and the
//     scaled integer numerators num[r] = µ_T(r)·D, which are exact
//     because D is a common denominator. Build carries every µ_T(r) as
//     a reduced fraction of machine words while it fits one, so when
//     all runs do and D fits a word too, the kernel is built from those
//     words with no big.Int arithmetic (wordKernel); otherwise it is
//     built from runPr (bigKernel). Either way Build's words are dropped
//     once the kernel exists.
//   - A measure query is then a word-at-a-time walk of the event's
//     bitset summing integers, with exactly ONE final big.Rat reduction
//     (SetFrac's normalization) to put the sum over D in lowest terms.
//   - Conditional measures never materialize the intersection and never
//     touch D at all: µ(a|b) = (Σ_{a∩b} num) / (Σ_b num), one SetFrac.
//
// Overflow proof for the uint64 tier: every num[r] is positive and
// Σ_r num[r] = D·Σ_r µ_T(r) = D·1 = D, because the builder validates
// that run probabilities sum to exactly 1. Every event's sum is a
// subset sum of non-negative terms, hence ≤ D. So when D itself fits in
// a uint64, every partial sum the kernel can ever form fits in a uint64
// with no possibility of wraparound, and the kernel sums machine words;
// otherwise it falls back to big.Int accumulation (still one final
// reduction). The tier is decided once, from D alone.
//
// The kernel is pure acceleration: results are byte-identical to the
// naive fold (big.Rat is always kept in lowest terms, so equal values
// have equal RatString forms). MeasureNaive keeps the reference fold
// alive for the kernel≡naive property tests and benchmarks.

import (
	"math/big"
	"math/bits"

	"pak/internal/runset"
)

// measureKernel is the shared-denominator integer view of runPr.
type measureKernel struct {
	// denom is D, the lcm of the runPr denominators.
	denom *big.Int
	// nums64 holds the scaled numerators when D (and therefore every
	// partial sum — see the overflow proof above) fits in a uint64; nil
	// when the big tier is in effect.
	nums64 []uint64
	// numsBig holds the scaled numerators in the fallback tier; nil when
	// the uint64 tier is in effect.
	numsBig []*big.Int
}

// measureKernel returns the lazily built kernel for the system, and
// drops Build's word-tier products once the kernel exists.
func (s *System) measureKernel() *measureKernel {
	s.kernelOnce.Do(func() {
		s.kernel = s.wordKernel()
		if s.kernel == nil {
			s.kernel = s.bigKernel()
		}
		s.runWords = nil
	})
	return s.kernel
}

// wordKernel builds the uint64-tier kernel from Build's reduced word
// products when every run has one and D fits a word, with no big.Int
// arithmetic; it returns nil otherwise. Each num[r] = (D/d_r)·n_r is at
// most D (µ_T(r) ≤ 1), so none of them overflows.
func (s *System) wordKernel() *measureKernel {
	if s.runWords == nil {
		return nil
	}
	d := uint64(1)
	for _, w := range s.runWords {
		hi, lcm := bits.Mul64(d/gcd64(d, w[1]), w[1])
		if hi != 0 {
			return nil
		}
		d = lcm
	}
	nums := make([]uint64, len(s.runWords))
	for r, w := range s.runWords {
		nums[r] = d / w[1] * w[0]
	}
	return &measureKernel{denom: new(big.Int).SetUint64(d), nums64: nums}
}

// bigKernel builds the kernel from runPr with big.Int arithmetic: the
// path for systems with a run product or a D that does not fit a word.
// It still selects the uint64 tier when D turns out to fit one.
func (s *System) bigKernel() *measureKernel {
	k := &measureKernel{denom: big.NewInt(1)}
	gcd := new(big.Int)
	for _, pr := range s.runPr {
		d := pr.Denom()
		gcd.GCD(nil, nil, k.denom, d)
		k.denom.Quo(k.denom, gcd)
		k.denom.Mul(k.denom, d)
	}
	nums := make([]*big.Int, len(s.runPr))
	for r, pr := range s.runPr {
		scale := new(big.Int).Quo(k.denom, pr.Denom())
		nums[r] = scale.Mul(scale, pr.Num())
	}
	if k.denom.IsUint64() {
		k.nums64 = make([]uint64, len(nums))
		for r, n := range nums {
			k.nums64[r] = n.Uint64()
		}
	} else {
		k.numsBig = nums
	}
	return k
}

// word64 sums the scaled numerators of the set bits of one bitset word
// (base is the word's first run id). Safe by the overflow proof above.
func (k *measureKernel) word64(base int, w uint64) uint64 {
	var total uint64
	for w != 0 {
		total += k.nums64[base+bits.TrailingZeros64(w)]
		w &= w - 1
	}
	return total
}

// wordBig accumulates the scaled numerators of the set bits of one
// bitset word into acc.
func (k *measureKernel) wordBig(acc *big.Int, base int, w uint64) {
	for w != 0 {
		acc.Add(acc, k.numsBig[base+bits.TrailingZeros64(w)])
		w &= w - 1
	}
}

// rat64 reduces an integer numerator sum over D to a big.Rat — the one
// reduction of a uint64-tier measure query.
func (k *measureKernel) rat64(num uint64) *big.Rat {
	return new(big.Rat).SetFrac(new(big.Int).SetUint64(num), k.denom)
}

// frac64 reduces a numerator/denominator pair of integer sums — the one
// reduction of a uint64-tier conditional query (D cancels).
func frac64(num, den uint64) *big.Rat {
	return new(big.Rat).SetFrac(new(big.Int).SetUint64(num), new(big.Int).SetUint64(den))
}

// Measure returns µ_T(ev), the prior probability of the event: a
// word-at-a-time integer sum with one final reduction (see the kernel
// comment above).
func (s *System) Measure(ev *runset.Set) *big.Rat {
	k := s.measureKernel()
	if k.nums64 != nil {
		var total uint64
		for wi, w := range ev.Words() {
			if w != 0 {
				total += k.word64(wi*64, w)
			}
		}
		return k.rat64(total)
	}
	acc := new(big.Int)
	for wi, w := range ev.Words() {
		if w != 0 {
			k.wordBig(acc, wi*64, w)
		}
	}
	return new(big.Rat).SetFrac(acc, k.denom)
}

// MeasureNaive is the reference per-run big.Rat fold Measure replaced.
// It is retained (and exported) as the oracle for the kernel≡naive
// property tests and the BenchmarkMeasureKernel comparison; results are
// byte-identical to Measure's.
func (s *System) MeasureNaive(ev *runset.Set) *big.Rat {
	total := new(big.Rat)
	ev.ForEach(func(r int) bool {
		total.Add(total, s.runPr[r])
		return true
	})
	return total
}

// MeasureIntersect returns µ_T(a ∩ b) without materializing the
// intersection: the word walk masks a's words with b's on the fly.
func (s *System) MeasureIntersect(a, b *runset.Set) *big.Rat {
	k := s.measureKernel()
	aw, bw := a.Words(), b.Words()
	if k.nums64 != nil {
		var total uint64
		for wi, w := range aw {
			if w &= bw[wi]; w != 0 {
				total += k.word64(wi*64, w)
			}
		}
		return k.rat64(total)
	}
	acc := new(big.Int)
	for wi, w := range aw {
		if w &= bw[wi]; w != 0 {
			k.wordBig(acc, wi*64, w)
		}
	}
	return new(big.Rat).SetFrac(acc, k.denom)
}

// Cond returns the conditional probability µ_T(a | b). The second
// result is false when µ_T(b) = 0 (which, in a pps, happens only for
// the empty event, since every run has positive probability). The
// fused form sums both integer numerators in one pass — a ∩ b is never
// materialized, D cancels, and the quotient is reduced exactly once.
func (s *System) Cond(a, b *runset.Set) (*big.Rat, bool) {
	k := s.measureKernel()
	aw, bw := a.Words(), b.Words()
	if k.nums64 != nil {
		var nab, nb uint64
		for wi, w := range bw {
			if w == 0 {
				continue
			}
			nb += k.word64(wi*64, w)
			if w &= aw[wi]; w != 0 {
				nab += k.word64(wi*64, w)
			}
		}
		if nb == 0 {
			return nil, false
		}
		return frac64(nab, nb), true
	}
	nab, nb := new(big.Int), new(big.Int)
	for wi, w := range bw {
		if w == 0 {
			continue
		}
		k.wordBig(nb, wi*64, w)
		if w &= aw[wi]; w != 0 {
			k.wordBig(nab, wi*64, w)
		}
	}
	if nb.Sign() == 0 {
		return nil, false
	}
	return new(big.Rat).SetFrac(nab, nb), true
}

// CondIntersect returns µ_T(a ∩ b | c), with ok=false when µ_T(c) = 0.
// It is the fused form of Cond(a.Intersect(b), c) — the Definition 4.1
// scan's µ([φ∧α]@ℓ | ℓ) — computing both integer sums in one pass with
// no intermediate set and one final reduction.
func (s *System) CondIntersect(a, b, c *runset.Set) (*big.Rat, bool) {
	k := s.measureKernel()
	aw, bw, cw := a.Words(), b.Words(), c.Words()
	if k.nums64 != nil {
		var nabc, nc uint64
		for wi, w := range cw {
			if w == 0 {
				continue
			}
			nc += k.word64(wi*64, w)
			if w &= aw[wi] & bw[wi]; w != 0 {
				nabc += k.word64(wi*64, w)
			}
		}
		if nc == 0 {
			return nil, false
		}
		return frac64(nabc, nc), true
	}
	nabc, nc := new(big.Int), new(big.Int)
	for wi, w := range cw {
		if w == 0 {
			continue
		}
		k.wordBig(nc, wi*64, w)
		if w &= aw[wi] & bw[wi]; w != 0 {
			k.wordBig(nabc, wi*64, w)
		}
	}
	if nc.Sign() == 0 {
		return nil, false
	}
	return new(big.Rat).SetFrac(nabc, nc), true
}
