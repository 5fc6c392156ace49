package pak_test

import (
	"testing"

	"pak"
)

// TestPublicAPIQuickstart walks the full public surface the way the
// quickstart example does: build a system, query beliefs, check theorems.
func TestPublicAPIQuickstart(t *testing.T) {
	// A tiny diagnosis system: a patient is sick with probability 1/4; a
	// test is 90% accurate; the doctor treats when the test is positive.
	b := pak.NewBuilder("doctor", "patient")
	sick := b.Init(pak.Rat(1, 4), "world", "d0", "sick")
	well := b.Init(pak.Rat(3, 4), "world", "d0", "well")
	// Test outcomes.
	sickPos := b.Child(sick, pak.Step{Pr: pak.Rat(9, 10), Acts: []string{"test", "none"},
		Env: "world", Locals: []string{"d1:pos", "sick'"}})
	sickNeg := b.Child(sick, pak.Step{Pr: pak.Rat(1, 10), Acts: []string{"test", "none"},
		Env: "world", Locals: []string{"d1:neg", "sick''"}})
	wellPos := b.Child(well, pak.Step{Pr: pak.Rat(1, 10), Acts: []string{"test", "none"},
		Env: "world", Locals: []string{"d1:pos", "well'"}})
	wellNeg := b.Child(well, pak.Step{Pr: pak.Rat(9, 10), Acts: []string{"test", "none"},
		Env: "world", Locals: []string{"d1:neg", "well''"}})
	// The doctor treats exactly on a positive test.
	for _, n := range []pak.NodeID{sickPos, wellPos} {
		b.Child(n, pak.Step{Pr: pak.One(), Acts: []string{"treat", "none"},
			Env: "world", Locals: []string{"d2:" + itoa(int(n)), "p2:" + itoa(int(n))}})
	}
	for _, n := range []pak.NodeID{sickNeg, wellNeg} {
		b.Child(n, pak.Step{Pr: pak.One(), Acts: []string{"wait", "none"},
			Env: "world", Locals: []string{"d2:" + itoa(int(n)), "p2:" + itoa(int(n))}})
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	e := pak.NewEngine(sys)
	isSick := pak.LocalContains("patient", "sick")

	// Bayes: µ(sick | treat) = (1/4·9/10) / (1/4·9/10 + 3/4·1/10) = 3/4.
	mu, err := e.ConstraintProb(isSick, "doctor", "treat")
	if err != nil {
		t.Fatal(err)
	}
	if mu.RatString() != "3/4" {
		t.Fatalf("µ(sick|treat) = %s, want 3/4", mu.RatString())
	}

	// Theorem 6.2 through the facade.
	rep, err := e.CheckExpectation(isSick, "doctor", "treat")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Independent || !rep.Equal() {
		t.Fatalf("expectation check failed: %v", rep)
	}

	// Classifiers.
	if !pak.IsPastBased(sys, isSick) {
		t.Error("patient state should be past-based")
	}
	if !pak.IsRunBased(sys, pak.Performed("doctor", "treat")) {
		t.Error("Performed should be run-based")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

// TestPublicAPIPaperSystems exercises the re-exported paper constructions.
func TestPublicAPIPaperSystems(t *testing.T) {
	fs, err := pak.FiringSquad(pak.Rat(1, 10), pak.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	e := pak.NewEngine(fs)
	both := pak.And(pak.Does("Alice", "fire"), pak.Does("Bob", "fire"))
	mu, err := e.ConstraintProb(both, "Alice", "fire")
	if err != nil {
		t.Fatal(err)
	}
	if mu.RatString() != "99/100" {
		t.Fatalf("µ = %s", mu.RatString())
	}

	that, err := pak.That(pak.Rat(9, 10), pak.Rat(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if that.NumRuns() != 3 {
		t.Fatalf("T-hat runs = %d", that.NumRuns())
	}

	fig1, err := pak.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if fig1.NumRuns() != 2 {
		t.Fatalf("Figure 1 runs = %d", fig1.NumRuns())
	}
}

// TestPublicAPIProtocolAndSampling exercises Unfold, the message network
// and the samplers through the facade.
func TestPublicAPIProtocolAndSampling(t *testing.T) {
	net, err := pak.NewNet(pak.Rat(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	// One agent sends itself a message through the lossy channel; the
	// environment decides delivery.
	msgs := []pak.Msg{{From: 0, To: 0, Payload: "ping"}}
	m := pak.FuncModel{
		AgentNames: []string{"i"},
		Init: []pak.WeightedGlobal{
			pak.InitialState(pak.Global{Env: "e", Locals: []string{"start"}}, pak.One()),
		},
		Step: func(agent int, local string, tt int) []pak.WeightedAction {
			return pak.Det("send")
		},
		Env: func(g pak.Global, acts []string, tt int) []pak.WeightedAction {
			return pak.DeliveryPatterns(net, msgs)
		},
		Trans: func(g pak.Global, acts []string, envAct string, tt int) (pak.Global, error) {
			inbox, err := pak.Inbox(msgs, envAct, 0)
			if err != nil {
				return pak.Global{}, err
			}
			if len(inbox) > 0 {
				return pak.Global{Env: "e", Locals: []string{"recv"}}, nil
			}
			return pak.Global{Env: "e", Locals: []string{"lost"}}, nil
		},
		Bound: 1,
	}
	sys, err := pak.Unfold(m)
	if err != nil {
		t.Fatal(err)
	}
	got := pak.RunsSatisfying(sys, pak.Sometime(pak.LocalContains("i", "recv")))
	if sys.Measure(got).RatString() != "3/4" {
		t.Fatalf("delivery measure = %s, want 3/4", sys.Measure(got).RatString())
	}

	s := pak.NewSampler(sys, 1)
	est, err := s.EstimateEvent(func(r pak.RunID) bool { return got.Contains(int(r)) }, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Contains(0.75) {
		t.Fatalf("estimate %v does not contain 0.75", est)
	}

	ps := pak.NewProtocolSampler(m, 2)
	est, err = ps.EstimateTrace(func(tr pak.Trace) bool {
		return tr.States[1].Locals[0] == "recv"
	}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Contains(0.75) {
		t.Fatalf("protocol estimate %v does not contain 0.75", est)
	}
}

// TestPublicAPIAdversaryAndEncode exercises the adversary and codec
// paths: an envelope over the adversary choosing Example 1's protocol
// variant (the improved protocol dominates the original), each
// assignment on a fresh engine.
func TestPublicAPIAdversaryAndEncode(t *testing.T) {
	items := []pak.EnvelopeItem{
		freshItem(t, "variant=orig", "fsquad"),
		freshItem(t, "variant=improved", "fsquad(improved=true)"),
	}
	both := pak.And(pak.Does("Alice", "fire"), pak.Does("Bob", "fire"))
	out, err := pak.EvalEnvelope(pak.EnvelopeQuery{
		Inner: pak.ConstraintQuery{Fact: both, Agent: "Alice", Action: "fire"},
		Items: items,
	})
	if err != nil || out.Result.Err != nil {
		t.Fatalf("envelope: %v / %v", err, out.Result.Err)
	}
	env := out.Result.Envelope
	if env.Min.RatString() != "99/100" || env.Max.RatString() != "990/991" {
		t.Fatalf("envelope = [%v, %v]", env.Min, env.Max)
	}
	if env.ArgMin != "variant=orig" || env.ArgMax != "variant=improved" {
		t.Fatalf("witnesses = %s, %s", env.ArgMin, env.ArgMax)
	}

	sys := items[0].Engine.System()
	data, err := pak.MarshalSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	back, err := pak.UnmarshalSystem(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRuns() != sys.NumRuns() {
		t.Fatal("round trip changed run count")
	}

	f, err := pak.ParseFact([]byte(`{"op":"does","agent":"Alice","action":"fire"}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "does_Alice(fire)" {
		t.Fatalf("parsed fact = %v", f)
	}
}

// TestPublicAPICommonBelief exercises the group-epistemics surface.
func TestPublicAPICommonBelief(t *testing.T) {
	sys, err := pak.FiringSquad(pak.Rat(1, 10), pak.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := pak.NewSlice(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	both := pak.RunsSatisfying(sys, pak.Sometime(
		pak.And(pak.Does("Alice", "fire"), pak.Does("Bob", "fire"))))
	c, err := slice.CommonP([]pak.AgentID{0, 1}, both, pak.Rat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if c.IsEmpty() {
		t.Error("common 1/2-belief of joint firing should be attainable in FS")
	}
}

// TestPublicAPIRandomSystems exercises the random-generation surface.
func TestPublicAPIRandomSystems(t *testing.T) {
	sys, err := pak.RandSystem(pak.RandDefault(5))
	if err != nil {
		t.Fatal(err)
	}
	e := pak.NewEngine(sys)
	rep, err := e.CheckExpectation(pak.RandPastFact(sys, 6), "a0", "alpha*")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds() {
		t.Fatalf("Theorem 6.2 failed on random system: %v", rep)
	}
	if !pak.IsRunBased(sys, pak.RandRunFact(sys, 7)) {
		t.Error("RandRunFact should be run-based")
	}
}

// TestPublicAPIAuditAndTimeline exercises the extended analysis surface.
func TestPublicAPIAuditAndTimeline(t *testing.T) {
	sys, err := pak.FiringSquad(pak.Rat(1, 10), pak.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	engine := pak.NewEngine(sys)
	both := pak.And(pak.Does("Alice", "fire"), pak.Does("Bob", "fire"))

	audit, err := engine.AuditConstraint(both, "Alice", "fire", pak.Rat(95, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Satisfied || !audit.AllTheoremsHold() {
		t.Fatalf("audit = %v", audit)
	}
	if audit.Refrain.Predicted.RatString() != "990/991" {
		t.Fatalf("refrain prediction = %v", audit.Refrain.Predicted)
	}

	// Belief timeline along a run where Alice receives 'Yes'.
	goOn := pak.Sometime(both)
	for r := 0; r < sys.NumRuns(); r++ {
		run := pak.RunID(r)
		if sys.RunLen(run) > 2 && sys.Local(run, 2, 0) == "t2|go=1,sent,recv=Yes" {
			tl, err := engine.BeliefTimeline(goOn, "Alice", run)
			if err != nil {
				t.Fatal(err)
			}
			if len(tl) != 4 || !tl[3].Knows {
				t.Fatalf("timeline = %v", tl)
			}
			break
		}
	}

	// Jeffrey decomposition through the facade.
	d, err := engine.Decompose(both, "Alice", "fire")
	if err != nil {
		t.Fatal(err)
	}
	if !d.WeightsSumToOne() || !d.LemmaB1Holds() {
		t.Fatalf("decomposition = %+v", d)
	}

	// Temporal operators.
	if !pak.IsPastBased(sys, pak.Once(pak.LocalContains("Alice", "go=1"))) {
		t.Error("Once of a past-based fact should be past-based")
	}
	if !pak.IsRunBased(sys, pak.AtTime(0, pak.LocalContains("Alice", "go=1"))) {
		t.Error("AtTime facts are run-based")
	}
	if !pak.DoesAny("Alice", "noop", "fire").Holds(sys, 0, 0) {
		t.Error("DoesAny should match one of the actions at t0")
	}
}

// TestPublicAPINSquad exercises the n-agent scenario through the facade.
func TestPublicAPINSquad(t *testing.T) {
	sys, err := pak.NFiringSquadSystem(3, pak.Rat(1, 10), false)
	if err != nil {
		t.Fatal(err)
	}
	engine := pak.NewEngine(sys)
	mu, err := engine.ConstraintProb(pak.AllFire(3), "General", "fire")
	if err != nil {
		t.Fatal(err)
	}
	if mu.RatString() != "9801/10000" {
		t.Fatalf("n=3 µ = %s, want 9801/10000", mu.RatString())
	}
}

// TestPublicAPIWrapperSweep exercises the remaining thin facade wrappers
// so the public surface is fully covered.
func TestPublicAPIWrapperSweep(t *testing.T) {
	sys, err := pak.Figure1()
	if err != nil {
		t.Fatal(err)
	}

	// Rational helpers.
	if pak.MustRat("1/2").RatString() != "1/2" {
		t.Error("MustRat")
	}
	if _, err := pak.ParseRat("zzz"); err == nil {
		t.Error("ParseRat should fail on garbage")
	}
	if pak.Zero().Sign() != 0 || pak.One().RatString() != "1" {
		t.Error("Zero/One")
	}

	// Boolean and temporal wrappers evaluated on Figure 1.
	cases := []struct {
		name string
		f    pak.Fact
		want bool
	}{
		{"True", pak.True(), true},
		{"False", pak.False(), false},
		{"Or", pak.Or(pak.False(), pak.True()), true},
		{"Implies", pak.Implies(pak.True(), pak.False()), false},
		{"Iff", pak.Iff(pak.False(), pak.False()), true},
		{"Not", pak.Not(pak.False()), true},
		{"EnvIs", pak.EnvIs("e0"), true},
		{"TimeIs", pak.TimeIs(0), true},
		{"LocalIs", pak.LocalIs("i", "g0"), true},
		{"Atom", pak.Atom("always", func(*pak.System, pak.RunID, int) bool { return true }), true},
		{"Always", pak.Always(pak.True()), true},
		{"Sometime", pak.Sometime(pak.EnvIs("e1")), true},
		{"Eventually", pak.Eventually(pak.EnvIs("e1")), true},
		{"Henceforth", pak.Henceforth(pak.True()), true},
		{"SoFar", pak.SoFar(pak.True()), true},
	}
	for _, tc := range cases {
		if got := tc.f.Holds(sys, 0, 0); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Group epistemic wrappers.
	group := []string{"i"}
	eb := pak.EveryoneBelieves(group, pak.Rat(1, 2), pak.True())
	mb := pak.MutualBelief(group, pak.Rat(1, 2), pak.True(), 2)
	if !eb.Holds(sys, 0, 0) || !mb.Holds(sys, 0, 0) {
		t.Error("EveryoneBelieves/MutualBelief on a tautology should hold")
	}
	if !pak.Knows("i", pak.True()).Holds(sys, 0, 0) {
		t.Error("Knows(true) should hold")
	}

	// Paper model + scenario wrappers.
	if _, err := pak.FiringSquadModel(pak.Rat(1, 10), pak.FSImproved); err != nil {
		t.Errorf("FiringSquadModel: %v", err)
	}
	if _, err := pak.MutexModel(pak.Rat(1, 10)); err != nil {
		t.Errorf("MutexModel: %v", err)
	}
	if _, err := pak.ConsensusModel(pak.Rat(1, 10)); err != nil {
		t.Errorf("ConsensusModel: %v", err)
	}
	if _, err := pak.UnfoldThat(pak.Rat(9, 10), pak.Rat(1, 10)); err != nil {
		t.Errorf("UnfoldThat: %v", err)
	}

	// Builder facade root constant.
	if pak.Root != 0 {
		t.Error("Root should be node 0")
	}
}
