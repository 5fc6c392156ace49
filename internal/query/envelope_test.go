package query

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"pak/internal/core"
	"pak/internal/paper"
	"pak/internal/pps"
	"pak/internal/ratutil"
	"pak/internal/scenarios"
)

// envItems builds a three-point family over nsquad(2) losses 0, 1/10,
// 1/5 (µ = 1, 99/100, 24/25).
func envItems(t *testing.T) []EnvelopeItem {
	t.Helper()
	var items []EnvelopeItem
	for _, loss := range []struct {
		name     string
		num, den int64
	}{
		{"loss=0", 0, 1}, {"loss=1/10", 1, 10}, {"loss=1/5", 1, 5},
	} {
		sys, err := scenarios.NFiringSquadSystem(2, ratutil.R(loss.num, loss.den), false)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, EnvelopeItem{Assignment: loss.name, Spec: "nsquad", Engine: core.New(sys)})
	}
	return items
}

func envInner() Query {
	return ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire}
}

func TestEvalEnvelopeBounds(t *testing.T) {
	out, err := EvalEnvelope(EnvelopeQuery{Inner: envInner(), Items: envItems(t)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StreamComplete || out.Result.Err != nil {
		t.Fatalf("status=%v err=%v", out.Status, out.Result.Err)
	}
	env := out.Result.Envelope
	if env == nil || !ratutil.Eq(env.Min, ratutil.R(24, 25)) || !ratutil.IsOne(env.Max) {
		t.Fatalf("envelope = %v", env)
	}
	if env.ArgMin != "loss=1/5" || env.ArgMax != "loss=0" || env.MinIndex != 2 || env.MaxIndex != 0 {
		t.Fatalf("witnesses = %+v", env)
	}
	if env.Visited != 3 || env.Total != 3 {
		t.Fatalf("coverage = %d/%d", env.Visited, env.Total)
	}
	if out.Result.Kind != KindEnvelope {
		t.Errorf("kind = %q", out.Result.Kind)
	}
	if got := out.Result.Values["min"]; got == nil || !ratutil.Eq(got, env.Min) {
		t.Errorf("Values[min] = %v", got)
	}
	// The wire form carries the same range.
	doc := DocOf(out.Result)
	if doc.Envelope == nil || doc.Envelope.Min != "24/25" || doc.Envelope.ArgMax != "loss=0" {
		t.Errorf("doc envelope = %+v", doc.Envelope)
	}
}

// TestEnvelopeTieBreaksTowardLowestIndex: equal values under every
// assignment must elect assignment 0 as both witnesses regardless of
// parallelism — the order-independence the determinism contract needs.
func TestEnvelopeTieBreaksTowardLowestIndex(t *testing.T) {
	sys, err := scenarios.NFiringSquadSystem(2, ratutil.R(1, 10), false)
	if err != nil {
		t.Fatal(err)
	}
	var items []EnvelopeItem
	for _, name := range []string{"a=0", "a=1", "a=2", "a=3"} {
		items = append(items, EnvelopeItem{Assignment: name, Engine: core.New(sys)})
	}
	for _, par := range []int{1, 4} {
		out, err := EvalEnvelope(EnvelopeQuery{Inner: envInner(), Items: items}, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		env := out.Result.Envelope
		if env.ArgMin != "a=0" || env.ArgMax != "a=0" || env.MinIndex != 0 || env.MaxIndex != 0 {
			t.Errorf("parallelism %d: tie witnesses = %+v", par, env)
		}
	}
}

func TestEnvelopeValidation(t *testing.T) {
	if _, err := EvalEnvelope(EnvelopeQuery{Inner: envInner()}); !errors.Is(err, ErrNoAssignments) {
		t.Errorf("empty items err = %v", err)
	}
	if _, err := EvalEnvelope(EnvelopeQuery{Items: envItems(t)}); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := EnvelopeStream(EnvelopeQuery{Inner: ConstraintQuery{}, Items: envItems(t)}); err == nil {
		t.Error("invalid inner accepted")
	}
}

// TestEnvelopeSkipAndFailureSlots: a skip (improper action) counts as
// visited and is recorded by name; a hard failure joins Result.Err with
// its assignment named; a valueless inner result is a per-slot failure.
func TestEnvelopeSkipAndFailureSlots(t *testing.T) {
	items := envItems(t)

	// Improper action under every assignment → all skipped.
	out, err := EvalEnvelope(EnvelopeQuery{
		Inner: ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: "nope"},
		Items: items,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := out.Result.Envelope
	if env.Defined() || env.Visited != 3 || len(env.Skipped) != 3 || env.Skipped[0] != "loss=0" {
		t.Fatalf("all-skipped envelope = %+v", env)
	}
	if !errors.Is(out.Result.Err, ErrAllSkipped) {
		t.Fatalf("all-skipped err = %v", out.Result.Err)
	}

	// A metric that hard-fails on one assignment: the envelope still
	// folds the others, and the failure is named.
	boom := errors.New("boom")
	n := 0
	out, err = EvalEnvelope(EnvelopeQuery{
		Inner: MetricQuery{Name: "flaky", Fn: func(e *core.Engine) (*big.Rat, error) {
			n++
			if n == 2 {
				return nil, boom
			}
			return e.ConstraintProb(scenarios.AllFireFact(2), scenarios.General, scenarios.ActFire)
		}},
		Items: items,
	}, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Result.Err, boom) || !strings.Contains(out.Result.Err.Error(), "loss=1/10") {
		t.Fatalf("failure join = %v", out.Result.Err)
	}
	env = out.Result.Envelope
	if env.Visited != 3 || !ratutil.Eq(env.Min, ratutil.R(24, 25)) || !ratutil.IsOne(env.Max) {
		t.Fatalf("envelope with failed slot = %+v", env)
	}

	// A valueless inner (belief over acting states yields a map, not a
	// single number) fails its slots rather than silently bounding
	// nothing.
	out, err = EvalEnvelope(EnvelopeQuery{
		Inner: BeliefQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire},
		Items: items[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Err == nil || !strings.Contains(out.Result.Err.Error(), "no single envelope value") {
		t.Fatalf("valueless inner err = %v", out.Result.Err)
	}
}

// fsItem builds one envelope item over Example 1's firing squad.
func fsItem(t *testing.T, assignment string, build func() (*pps.System, error)) EnvelopeItem {
	t.Helper()
	sys, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return EnvelopeItem{Assignment: assignment, Engine: core.New(sys)}
}

// TestConstraintEnvelope: the adversary fixes Example 1's go input, as
// in the paper's Section 2 discussion. Under go=0 Alice never fires, so
// that assignment is skipped by name; under go=1 the constraint is the
// paper's 99/100, which is then both bounds and both witnesses.
func TestConstraintEnvelope(t *testing.T) {
	var items []EnvelopeItem
	for _, g := range []int{0, 1} {
		items = append(items, fsItem(t, fmt.Sprintf("go=%d", g), func() (*pps.System, error) {
			return paper.FiringSquadFixedGo(ratutil.R(1, 10), paper.FSOriginal, g)
		}))
	}
	out, err := EvalEnvelope(EnvelopeQuery{
		Inner: ConstraintQuery{Fact: paper.FSBothFire(), Agent: paper.Alice, Action: paper.ActFire},
		Items: items,
	})
	if err != nil || out.Result.Err != nil {
		t.Fatalf("envelope: %v / %v", err, out.Result.Err)
	}
	env := out.Result.Envelope
	if len(env.Skipped) != 1 || env.Skipped[0] != "go=0" {
		t.Fatalf("skipped = %v", env.Skipped)
	}
	if !ratutil.Eq(env.Min, ratutil.R(99, 100)) || !ratutil.Eq(env.Max, ratutil.R(99, 100)) {
		t.Fatalf("envelope = [%v, %v], want [99/100, 99/100]", env.Min, env.Max)
	}
	if env.ArgMin != "go=1" || env.ArgMax != "go=1" {
		t.Fatalf("witnesses = %s, %s", env.ArgMin, env.ArgMax)
	}
}

// TestMetricEnvelope sweeps an opaque metric over the adversary that
// picks the protocol variant: the threshold-met measure
// µ(β ≥ 0.95 | fire_A) is 991/1000 under the original protocol and 1
// under the improved one.
func TestMetricEnvelope(t *testing.T) {
	items := []EnvelopeItem{
		fsItem(t, "variant=orig", func() (*pps.System, error) {
			return paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
		}),
		fsItem(t, "variant=improved", func() (*pps.System, error) {
			return paper.FiringSquad(ratutil.R(1, 10), paper.FSImproved)
		}),
	}
	metric := MetricQuery{Name: "threshold met", Fn: func(e *core.Engine) (*big.Rat, error) {
		return e.ThresholdMeasure(paper.FSBothFire(), paper.Alice, paper.ActFire, ratutil.R(95, 100))
	}}
	out, err := EvalEnvelope(EnvelopeQuery{Inner: metric, Items: items})
	if err != nil || out.Result.Err != nil {
		t.Fatalf("envelope: %v / %v", err, out.Result.Err)
	}
	env := out.Result.Envelope
	if !ratutil.Eq(env.Min, ratutil.R(991, 1000)) || !ratutil.IsOne(env.Max) {
		t.Fatalf("envelope = [%v, %v]", env.Min, env.Max)
	}
	if env.ArgMin != "variant=orig" || env.ArgMax != "variant=improved" {
		t.Fatalf("witnesses = %s, %s", env.ArgMin, env.ArgMax)
	}
}

// TestMetricQueryIsOpaque: MetricQuery evaluates like any query but
// refuses to serialize, mirroring opaque facts.
func TestMetricQueryIsOpaque(t *testing.T) {
	sys, err := paper.FiringSquad(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	q := MetricQuery{Name: "µ(both)", Fn: func(e *core.Engine) (*big.Rat, error) {
		return e.ConstraintProb(paper.FSBothFire(), paper.Alice, paper.ActFire)
	}}
	res, err := Eval(core.New(sys), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindMetric || !ratutil.Eq(res.Value, ratutil.R(99, 100)) {
		t.Fatalf("metric result = %+v", res)
	}
	if _, err := Marshal(q); err == nil {
		t.Error("MetricQuery serialized; it must refuse")
	}
	if _, err := Eval(core.New(sys), MetricQuery{}); err == nil {
		t.Error("nil-Fn metric accepted")
	}
}
