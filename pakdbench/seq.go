package main

import (
	"fmt"
	"math/big"
	"strings"
)

// splitmix is a small deterministic generator: the whole request
// sequence of a run derives from the --seed argument through it, so
// one seed always yields the same request bytes.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, stream uint64) *splitmix {
	return &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// blockOrder returns the position within its group list of the i-th
// request of a repeated workload: every block of n consecutive
// requests holds each group exactly once, in a seeded order, so the
// mix is identical on every seed and only the order differs.
func blockOrder(seed int64, i, n int) int {
	return newSplitmix(seed, uint64(i/n)+1).perm(n)[i%n]
}

// sampled reports whether request i is in the seed-chosen sample
// verified against a library reference after the window (one in every).
func sampled(seed int64, i, every int) bool {
	return newSplitmix(seed, 1<<40+uint64(i)).intn(every) == 0
}

// Query documents, in the wire schema of the query layer.

func factDoes(agent, action string) string {
	return fmt.Sprintf(`{"op":"does","agent":%q,"action":%q}`, agent, action)
}

func factAnd(args ...string) string {
	return `{"op":"and","args":[` + strings.Join(args, ",") + `]}`
}

// allFire holds when the General and all n-1 soldiers fire.
func allFire(n int) string {
	args := []string{factDoes("General", "fire")}
	for i := 1; i < n; i++ {
		args = append(args, factDoes(fmt.Sprintf("s%d", i), "fire"))
	}
	return factAnd(args...)
}

func believes(agent string, p *big.Rat, arg string) string {
	return fmt.Sprintf(`{"op":"believes","agent":%q,"p":%q,"arg":%s}`, agent, p.RatString(), arg)
}

func localContains(agent, substr string) string {
	return fmt.Sprintf(`{"op":"localContains","agent":%q,"substr":%q}`, agent, substr)
}

// queryDoc renders one query; threshold is "" where the kind takes none.
func queryDoc(kind, agent, action, fact, threshold string) string {
	extra := ""
	switch {
	case kind == "theorem":
		extra = `,"theorem":"expectation"`
	case threshold != "":
		extra = fmt.Sprintf(`,"threshold":%q`, threshold)
	}
	return fmt.Sprintf(`{"kind":%q,"agent":%q,"action":%q%s,"fact":%s}`, kind, agent, action, extra, fact)
}

func batch(qs ...string) string { return "[" + strings.Join(qs, ",") + "]" }

// squadBatch is the standard batch against a squad's General:
// constraint, expectation, Theorem 6.2, a threshold at each level, and
// the independence of one soldier's firing from the General's.
func squadBatch(general, soldier string, fact string, levels ...string) string {
	qs := []string{
		queryDoc("constraint", general, "fire", fact, ""),
		queryDoc("expectation", general, "fire", fact, ""),
		queryDoc("theorem", general, "fire", fact, ""),
	}
	for _, p := range levels {
		qs = append(qs, queryDoc("threshold", general, "fire", fact, p))
	}
	return batch(append(qs, queryDoc("independence", general, "fire", factDoes(soldier, "fire"), ""))...)
}

// levelsOver renders k/den for k in [lo, hi] as rational strings.
func levelsOver(den, lo, hi int64) []string {
	var out []string
	for k := lo; k <= hi; k++ {
		out = append(out, big.NewRat(k, den).RatString())
	}
	return out
}

// closedForm is the n-agent squad's constraint probability
// µ(all fire @ General fires) = (1-ℓ²)^(n-1) (original protocol).
func closedForm(n int, loss *big.Rat) *big.Rat {
	one := big.NewRat(1, 1)
	base := new(big.Rat).Sub(one, new(big.Rat).Mul(loss, loss))
	out := big.NewRat(1, 1)
	for i := 1; i < n; i++ {
		out.Mul(out, base)
	}
	return out
}
