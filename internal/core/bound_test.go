package core_test

// The bound ≡ self-contained differential. An engine scan rebuilds a
// fact's believes and knows nodes so they read the engine's memo tables
// (bind.go); package epistemic's operators rescan the system at every
// call and are the oracle. Random nested epistemic facts over every
// registry scenario's default instance and over random systems must get
// the same extensions, beliefs, constraint values, expectations,
// threshold measures and knowledge verdicts either way.

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pak/internal/core"
	"pak/internal/epistemic"
	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/randsys"
	"pak/internal/ratutil"
	"pak/internal/registry"
	"pak/internal/scenarios"
)

// factGen draws random facts over one system's vocabulary.
type factGen struct {
	rng     *rand.Rand
	sys     *pps.System
	agents  []string
	locals  [][]string // per agent
	actions [][]string // per agent
	maxTime int
}

func newFactGen(sys *pps.System, seed int64) *factGen {
	g := &factGen{rng: rand.New(rand.NewSource(seed)), sys: sys, agents: sys.Agents(), maxTime: sys.MaxTime()}
	for a := range g.agents {
		id := pps.AgentID(a)
		g.locals = append(g.locals, sys.LocalStates(id))
		seen := map[string]bool{}
		var acts []string
		for r := 0; r < sys.NumRuns(); r++ {
			for t := 0; t < sys.RunLen(pps.RunID(r)); t++ {
				if act, ok := sys.Action(pps.RunID(r), t, id); ok && !seen[act] {
					seen[act] = true
					acts = append(acts, act)
				}
			}
		}
		g.actions = append(g.actions, acts)
	}
	return g
}

// level draws a belief level: 0, 1, or a random rational in [0, 1].
func (g *factGen) level() *big.Rat {
	switch g.rng.Intn(4) {
	case 0:
		return ratutil.Zero()
	case 1:
		return ratutil.One()
	default:
		d := int64(1 + g.rng.Intn(12))
		return ratutil.R(g.rng.Int63n(d+1), d)
	}
}

func (g *factGen) leaf() logic.Fact {
	a := g.rng.Intn(len(g.agents))
	switch g.rng.Intn(5) {
	case 0:
		if acts := g.actions[a]; len(acts) > 0 {
			return logic.Does(g.agents[a], acts[g.rng.Intn(len(acts))])
		}
		return logic.True()
	case 1:
		ls := g.locals[a]
		return logic.LocalIs(g.agents[a], ls[g.rng.Intn(len(ls))])
	case 2:
		return logic.TimeIs(g.rng.Intn(g.maxTime + 1))
	case 3:
		return logic.True()
	default:
		return logic.False()
	}
}

// fact draws a fact of the given depth with at most epi nested
// epistemic operators on any path, so the oracle's cost (one rescan per
// nesting level) stays small.
func (g *factGen) fact(depth, epi int) logic.Fact {
	if depth == 0 {
		return g.leaf()
	}
	agent := g.agents[g.rng.Intn(len(g.agents))]
	switch k := g.rng.Intn(12); {
	case k < 3 && epi > 0:
		return epistemic.Believes(agent, g.level(), g.fact(depth-1, epi-1))
	case k < 5 && epi > 0:
		return epistemic.Knows(agent, g.fact(depth-1, epi-1))
	case k == 5:
		return logic.And(g.fact(depth-1, epi), g.fact(depth-1, epi))
	case k == 6:
		return logic.Or(g.fact(depth-1, epi), g.fact(depth-1, epi))
	case k == 7:
		return logic.Not(g.fact(depth-1, epi))
	case k == 8:
		if g.rng.Intn(2) == 0 {
			return logic.Once(g.fact(depth-1, epi))
		}
		return logic.SoFar(g.fact(depth-1, epi))
	case k == 9:
		if g.rng.Intn(2) == 0 {
			return logic.Sometime(g.fact(depth-1, epi))
		}
		return logic.Eventually(g.fact(depth-1, epi))
	case k == 10:
		return logic.AtTime(g.rng.Intn(g.maxTime+1), g.fact(depth-1, epi))
	default:
		return g.leaf()
	}
}

// epistemicFact draws facts until one contains an epistemic operator.
func (g *factGen) epistemicFact() logic.Fact {
	for {
		f := g.fact(3, 2)
		spec, _ := logic.SpecOf(f)
		if key := spec.Key(); strings.Contains(key, "believes(") || strings.Contains(key, "knows(") {
			return f
		}
	}
}

// checkBoundMatchesOracle holds one engine's answers for f on sys to
// the self-contained evaluation of f.
func checkBoundMatchesOracle(t *testing.T, e *core.Engine, sys *pps.System, f logic.Fact, p *big.Rat) {
	t.Helper()
	for a, agent := range sys.Agents() {
		id := pps.AgentID(a)
		for _, local := range sys.LocalStates(id) {
			occ, tm, _ := sys.Occurs(id, local)
			want := sys.NewSet()
			occ.ForEach(func(r int) bool {
				if f.Holds(sys, pps.RunID(r), tm) {
					want.Add(r)
				}
				return true
			})
			got, err := e.FactAtLocal(f, agent, local)
			if err != nil {
				t.Fatalf("φ@ℓ %s at %q: %v", agent, local, err)
			}
			if !got.Equal(want) {
				t.Fatalf("φ@ℓ %s at %q: engine %v, oracle %v", agent, local, got, want)
			}
			bel, err := e.Belief(f, agent, local)
			if err != nil {
				t.Fatal(err)
			}
			r := occ.Members()[0]
			if oracle := epistemic.BeliefDegree(sys, agent, f, pps.RunID(r), tm); !ratutil.Eq(bel, oracle) {
				t.Fatalf("β_%s at %q: engine %s, oracle %s", agent, local, bel.RatString(), oracle.RatString())
			}
			known, err := e.Knows(f, agent, pps.RunID(r), tm)
			if err != nil {
				t.Fatal(err)
			}
			if oracle := epistemic.Knows(agent, f).Holds(sys, pps.RunID(r), tm); known != oracle {
				t.Fatalf("K_%s at %q: engine %v, oracle %v", agent, local, known, oracle)
			}
		}
		for _, action := range properActions(e, sys, agent) {
			checkActionMatchesOracle(t, e, sys, f, agent, action, p)
		}
	}
}

// properActions lists the agent's proper actions.
func properActions(e *core.Engine, sys *pps.System, agent string) []string {
	id, _ := sys.AgentIndex(agent)
	seen := map[string]bool{}
	var out []string
	for r := 0; r < sys.NumRuns(); r++ {
		for t := 0; t < sys.RunLen(pps.RunID(r)); t++ {
			act, ok := sys.Action(pps.RunID(r), t, id)
			if ok && !seen[act] {
				seen[act] = true
				if e.IsProper(agent, act) == nil {
					out = append(out, act)
				}
			}
		}
	}
	return out
}

func checkActionMatchesOracle(t *testing.T, e *core.Engine, sys *pps.System, f logic.Fact, agent, action string, p *big.Rat) {
	t.Helper()
	performed, err := e.PerformedSet(agent, action)
	if err != nil {
		t.Fatal(err)
	}
	factAt := sys.NewSet()
	atLevel := sys.NewSet()
	expected := new(big.Rat)
	performed.ForEach(func(r int) bool {
		tm, _, _ := e.PerformanceTime(agent, action, pps.RunID(r))
		if f.Holds(sys, pps.RunID(r), tm) {
			factAt.Add(r)
		}
		bel := epistemic.BeliefDegree(sys, agent, f, pps.RunID(r), tm)
		expected.Add(expected, ratutil.Mul(bel, sys.RunProb(pps.RunID(r))))
		if ratutil.Geq(bel, p) {
			atLevel.Add(r)
		}
		return true
	})
	mAlpha := sys.Measure(performed)
	where := fmt.Sprintf("%s/%s", agent, action)

	got, err := e.FactAtAction(f, agent, action)
	if err != nil {
		t.Fatalf("φ@α %s: %v", where, err)
	}
	if !got.Equal(factAt) {
		t.Fatalf("φ@α %s: engine %v, oracle %v", where, got, factAt)
	}
	mu, err := e.ConstraintProb(f, agent, action)
	if err != nil {
		t.Fatal(err)
	}
	if want := ratutil.Div(sys.Measure(factAt), mAlpha); !ratutil.Eq(mu, want) {
		t.Fatalf("µ(φ@α|α) %s: engine %s, oracle %s", where, mu.RatString(), want.RatString())
	}
	exp, err := e.ExpectedBelief(f, agent, action)
	if err != nil {
		t.Fatal(err)
	}
	if want := ratutil.Div(expected, mAlpha); !ratutil.Eq(exp, want) {
		t.Fatalf("E[β@α|α] %s: engine %s, oracle %s", where, exp.RatString(), want.RatString())
	}
	tm, err := e.ThresholdMeasure(f, agent, action, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := ratutil.Div(sys.Measure(atLevel), mAlpha); !ratutil.Eq(tm, want) {
		t.Fatalf("µ(β ≥ %s|α) %s: engine %s, oracle %s", p.RatString(), where, tm.RatString(), want.RatString())
	}
	d, err := e.Decompose(f, agent, action)
	if err != nil {
		t.Fatal(err)
	}
	if !ratutil.Eq(d.ConstraintProb, mu) || !ratutil.Eq(d.ExpectedBelief, exp) {
		t.Fatalf("Decompose %s: µ %s E %s, want %s and %s", where,
			d.ConstraintProb.RatString(), d.ExpectedBelief.RatString(), mu.RatString(), exp.RatString())
	}
}

// TestBoundEpistemicMatchesSelfContained runs the differential over the
// registry's default instances and a spread of random systems. One
// engine per system serves every fact, so nested memo entries written
// for one fact are read by the next.
func TestBoundEpistemicMatchesSelfContained(t *testing.T) {
	type target struct {
		name string
		sys  *pps.System
	}
	var targets []target
	reg := registry.Default()
	for _, s := range reg.Scenarios() {
		sys, err := reg.Build(s.Name)
		if err != nil {
			t.Fatalf("build %s: %v", s.Name, err)
		}
		targets = append(targets, target{s.Name, sys})
	}
	for seed := int64(1); seed <= 6; seed++ {
		sys, err := randsys.Generate(randsys.Default(seed))
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{fmt.Sprintf("randsys(%d)", seed), sys})
	}
	for i, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			gen := newFactGen(tg.sys, int64(100+i))
			e := core.New(tg.sys)
			facts := 30
			if tg.sys.NumRuns() > 30 {
				facts = 3
			}
			for k := 0; k < facts; k++ {
				f := gen.epistemicFact()
				t.Run(fmt.Sprint(k), func(t *testing.T) {
					checkBoundMatchesOracle(t, e, tg.sys, f, gen.level())
				})
			}
		})
	}
}

// TestBoundEpistemicConcurrent: concurrent scans on one engine share the
// nested memo entries while each keeps its own binding, and every
// goroutine gets the serial answers. Runs under -race in CI.
func TestBoundEpistemicConcurrent(t *testing.T) {
	sys, err := registry.Default().Build("nsquad(3)")
	if err != nil {
		t.Fatal(err)
	}
	fire := scenarios.AllFireFact(3)
	var facts []logic.Fact
	for _, p := range []*big.Rat{ratutil.R(1, 4), ratutil.R(1, 2), ratutil.R(3, 4)} {
		b := epistemic.Believes(scenarios.General, p, fire)
		facts = append(facts, b,
			epistemic.Knows("s1", b),
			logic.And(b, logic.Not(epistemic.Believes("s2", p, b))))
	}
	type answer struct{ mu, exp *big.Rat }
	eval := func(e *core.Engine, f logic.Fact) (answer, error) {
		mu, err := e.ConstraintProb(f, scenarios.General, scenarios.ActFire)
		if err != nil {
			return answer{}, err
		}
		exp, err := e.ExpectedBelief(f, scenarios.General, scenarios.ActFire)
		return answer{mu, exp}, err
	}
	want := make([]answer, len(facts))
	for i, f := range facts {
		if want[i], err = eval(core.New(sys), f); err != nil {
			t.Fatal(err)
		}
	}
	shared := core.New(sys)
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(facts))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range facts {
				i := (k + g) % len(facts)
				got, err := eval(shared, facts[i])
				switch {
				case err != nil:
					errs <- err
				case !ratutil.Eq(got.mu, want[i].mu) || !ratutil.Eq(got.exp, want[i].exp):
					errs <- fmt.Errorf("fact %v: (%s, %s), serial (%s, %s)", facts[i],
						got.mu.RatString(), got.exp.RatString(), want[i].mu.RatString(), want[i].exp.RatString())
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
