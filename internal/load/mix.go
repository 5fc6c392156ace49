package load

import (
	"fmt"
	"net/http"

	"pak/internal/logic"
	"pak/internal/query"
	"pak/internal/randsys"
	"pak/internal/ratutil"
	"pak/internal/scenarios"
)

// The built-in mixes, shared by cmd/pakload and the smoke/stress tests
// so "the standard workload" means one thing everywhere:
//
//   - "squad": the happy path — catalog reads plus query batches over
//     the 2- and 3-agent firing squads (warm-cache traffic once the
//     engines are built).
//   - "mixed": "squad" plus deliberate client errors (unknown scenario,
//     bad params, malformed batch), each expecting its 4xx — the error
//     taxonomy and the service's error paths under load.
//   - "heavy": cold-build churn — distinct random(seed=…) specs that
//     defeat the engine cache by design, plus the squad batches, so
//     eviction and singleflight stay busy.
//
// Every mix is deterministic data (no clocks, no RNG), so two runs with
// one seed issue the same request sequence.

// MixNames lists the built-in mixes.
func MixNames() []string {
	return []string{"squad", "mixed", "heavy", "stream", "envelope", "approx"}
}

// BuiltinMix returns the named mix, or an error naming the valid set.
func BuiltinMix(name string) ([]Scenario, error) {
	switch name {
	case "squad":
		return squadMix()
	case "mixed":
		return mixedMix()
	case "heavy":
		return heavyMix()
	case "stream":
		return streamMix()
	case "envelope":
		return envelopeMix()
	case "approx":
		return approxMix()
	default:
		return nil, fmt.Errorf("load: unknown mix %q (have %v)", name, MixNames())
	}
}

// evalBody renders a /v1/eval request body naming the systems with one
// standard squad batch (constraint + expectation + Theorem 6.2 against
// the General).
func evalBody(n int, systems ...string) ([]byte, error) {
	all := scenarios.AllFireFact(n)
	batch, err := query.MarshalBatch([]query.Query{
		query.ConstraintQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire},
		query.ExpectationQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire},
		query.TheoremQuery{Theorem: query.TheoremExpectation, Fact: all,
			Agent: scenarios.General, Action: scenarios.ActFire},
		query.ThresholdQuery{Fact: all, Agent: scenarios.General,
			Action: scenarios.ActFire, P: ratutil.R(9, 10)},
	})
	if err != nil {
		return nil, err
	}
	doc := []byte(`{"systems": [`)
	for i, s := range systems {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = append(doc, fmt.Sprintf("%q", s)...)
	}
	doc = append(doc, `], "queries": `...)
	doc = append(doc, batch...)
	doc = append(doc, '}')
	return doc, nil
}

func squadMix() ([]Scenario, error) {
	two, err := evalBody(2, "nsquad(2)")
	if err != nil {
		return nil, err
	}
	three, err := evalBody(3, "nsquad(3)")
	if err != nil {
		return nil, err
	}
	fan, err := evalBody(2, "nsquad(2)", "nsquad(n=2,loss=1/10)", "fsquad")
	if err != nil {
		return nil, err
	}
	return []Scenario{
		{Name: "eval-nsquad2", Path: "/v1/eval", Body: two, Weight: 4,
			ExpectStatus: http.StatusOK, CheckJSON: true},
		{Name: "eval-nsquad3", Path: "/v1/eval", Body: three, Weight: 2,
			ExpectStatus: http.StatusOK, CheckJSON: true},
		{Name: "eval-fanout", Path: "/v1/eval", Body: fan, Weight: 2,
			ExpectStatus: http.StatusOK, CheckJSON: true},
		{Name: "catalog", Path: "/v1/scenarios", Weight: 1,
			ExpectStatus: http.StatusOK, CheckJSON: true},
		{Name: "catalog-one", Path: "/v1/scenarios/nsquad", Weight: 1,
			ExpectStatus: http.StatusOK, CheckJSON: true},
	}, nil
}

func mixedMix() ([]Scenario, error) {
	mix, err := squadMix()
	if err != nil {
		return nil, err
	}
	return append(mix,
		Scenario{Name: "err-unknown-scenario", Path: "/v1/eval",
			Body:   []byte(`{"systems": ["nosuch"], "queries": []}`),
			Weight: 1, ExpectStatus: http.StatusNotFound, CheckJSON: true},
		Scenario{Name: "err-bad-params", Path: "/v1/eval",
			Body:   []byte(`{"systems": ["nsquad(n=zero)"], "queries": []}`),
			Weight: 1, ExpectStatus: http.StatusBadRequest, CheckJSON: true},
		Scenario{Name: "err-bad-batch", Path: "/v1/eval",
			Body:   []byte(`{"systems": ["nsquad(2)"], "queries": [{"kind": "nope"}]}`),
			Weight: 1, ExpectStatus: http.StatusBadRequest, CheckJSON: true},
	), nil
}

// streamMix drives /v1/eval/stream with the standard squad bodies under
// full frame validation: every response must be a well-formed NDJSON
// stream whose (system, index) coordinates form a hole-free set with
// the exact per-batch frame count, closed by a designed terminal frame.
// Against a deadlined server the same mix asserts the prefix-on-timeout
// contract instead (unfinished slots name the deadline, finished slots
// stay clean) — the harness side of the tentpole's "finished work is
// never lost" guarantee.
func streamMix() ([]Scenario, error) {
	two, err := evalBody(2, "nsquad(2)")
	if err != nil {
		return nil, err
	}
	three, err := evalBody(3, "nsquad(3)")
	if err != nil {
		return nil, err
	}
	fan, err := evalBody(2, "nsquad(2)", "nsquad(n=2,loss=1/10)", "fsquad")
	if err != nil {
		return nil, err
	}
	return []Scenario{
		// evalBody carries 4 queries; the fan-out names 3 systems.
		{Name: "stream-nsquad2", Path: "/v1/eval/stream", Body: two, Weight: 4,
			ExpectStatus: http.StatusOK, CheckStream: true, ExpectFrames: 4},
		{Name: "stream-nsquad3", Path: "/v1/eval/stream", Body: three, Weight: 2,
			ExpectStatus: http.StatusOK, CheckStream: true, ExpectFrames: 4},
		{Name: "stream-fanout", Path: "/v1/eval/stream", Body: fan, Weight: 2,
			ExpectStatus: http.StatusOK, CheckStream: true, ExpectFrames: 12},
		{Name: "stats", Path: "/v1/stats", Weight: 1,
			ExpectStatus: http.StatusOK, CheckJSON: true},
	}, nil
}

// envelopeBody renders a /v1/envelope request body sweeping the space
// with the standard constraint query (all n agents fire, judged for the
// General).
func envelopeBody(space string, n int) ([]byte, error) {
	doc, err := query.Marshal(query.ConstraintQuery{
		Fact:  scenarios.AllFireFact(n),
		Agent: scenarios.General, Action: scenarios.ActFire,
	})
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"space": %q, "query": %s}`, space, doc)), nil
}

// envelopeMix drives the envelope endpoints: buffered sweeps (fully
// visited envelopes on 200), streamed sweeps under full frame
// validation (hole-free assignment indices, running envelopes, the
// terminal's final envelope), the deliberate error probes of the sweep
// grammar, and the stats read. Sweep instances are canonical system
// specs, so this mix doubles as shared-EngineCache traffic: concurrent
// sweeps over one space keep hitting the same engines.
func envelopeMix() ([]Scenario, error) {
	// 6 assignments: nsquad(2) loss 0..1/2 by 1/10.
	sweep2, err := envelopeBody("sweep(nsquad,n=2,loss=0..1/2/1/10)", 2)
	if err != nil {
		return nil, err
	}
	// 3 assignments over the 3-agent squad.
	sweep3, err := envelopeBody("sweep(nsquad,n=3,loss=0..1/5/1/10)", 3)
	if err != nil {
		return nil, err
	}
	return []Scenario{
		{Name: "envelope-nsquad2", Path: "/v1/envelope", Body: sweep2, Weight: 3,
			ExpectStatus: http.StatusOK, CheckJSON: true, CheckEnvelope: true, ExpectFrames: 6},
		{Name: "envelope-nsquad3", Path: "/v1/envelope", Body: sweep3, Weight: 2,
			ExpectStatus: http.StatusOK, CheckJSON: true, CheckEnvelope: true, ExpectFrames: 3},
		{Name: "envelope-stream-nsquad2", Path: "/v1/envelope/stream", Body: sweep2, Weight: 3,
			ExpectStatus: http.StatusOK, CheckEnvelope: true, ExpectFrames: 6},
		{Name: "envelope-stream-nsquad3", Path: "/v1/envelope/stream", Body: sweep3, Weight: 2,
			ExpectStatus: http.StatusOK, CheckEnvelope: true, ExpectFrames: 3},
		{Name: "err-envelope-unknown-scenario", Path: "/v1/envelope",
			Body:   []byte(`{"space": "sweep(nosuch,loss=0..1)", "query": {"kind":"constraint","agent":"a","action":"b","fact":{"op":"does","agent":"a","action":"b"}}}`),
			Weight: 1, ExpectStatus: http.StatusNotFound, CheckJSON: true},
		{Name: "err-envelope-bad-range", Path: "/v1/envelope",
			Body:   []byte(`{"space": "sweep(nsquad,loss=1..0)", "query": {"kind":"constraint","agent":"a","action":"b","fact":{"op":"does","agent":"a","action":"b"}}}`),
			Weight: 1, ExpectStatus: http.StatusBadRequest, CheckJSON: true},
		{Name: "stats", Path: "/v1/stats", Weight: 1,
			ExpectStatus: http.StatusOK, CheckJSON: true},
	}, nil
}

// approxEvalBody is evalBody with the approximate-tier knob spliced in:
// the same standard squad batch, answered approx-first. approxJSON is
// the raw `"approx"` object (fixed samples + seed keeps every run of a
// scenario byte-identical — mixes stay deterministic data).
func approxEvalBody(n int, approxJSON string, systems ...string) ([]byte, error) {
	body, err := evalBody(n, systems...)
	if err != nil {
		return nil, err
	}
	body = body[:len(body)-1] // drop the closing brace
	body = append(body, `, "approx": `...)
	body = append(body, approxJSON...)
	body = append(body, '}')
	return body, nil
}

// approxMix drives the approximate tier end to end: buffered approx
// evals (estimates attached to refined results on 200), approx streams
// under full frame validation via CheckApproxStream — per slot the
// stage sequence must be approx-then-exact (or approx alone under Only
// / a deadline cut, or exact alone for unsupported kinds), approx
// frames must carry their intervals, and ExpectFrames pins the SLOT
// count — plus the bad-spec error probes and the stats read. The
// fixed samples+seed in every body make each scenario's responses
// deterministic, which is what lets the validator be strict.
func approxMix() ([]Scenario, error) {
	two, err := approxEvalBody(2, `{"samples": 64, "seed": 7}`, "nsquad(2)")
	if err != nil {
		return nil, err
	}
	fan, err := approxEvalBody(2, `{"samples": 64, "seed": 7}`,
		"nsquad(2)", "nsquad(n=2,loss=1/10)", "fsquad")
	if err != nil {
		return nil, err
	}
	only, err := approxEvalBody(2, `{"eps": "1/10", "delta": "1/100", "seed": 3, "only": true}`,
		"nsquad(2)")
	if err != nil {
		return nil, err
	}
	return []Scenario{
		// evalBody carries 4 queries (4 slots per system); the fan-out
		// names 3 systems.
		{Name: "approx-eval-nsquad2", Path: "/v1/eval", Body: two, Weight: 3,
			ExpectStatus: http.StatusOK, CheckJSON: true},
		{Name: "approx-stream-nsquad2", Path: "/v1/eval/stream", Body: two, Weight: 3,
			ExpectStatus: http.StatusOK, CheckApproxStream: true, ExpectFrames: 4},
		{Name: "approx-stream-fanout", Path: "/v1/eval/stream", Body: fan, Weight: 2,
			ExpectStatus: http.StatusOK, CheckApproxStream: true, ExpectFrames: 12},
		{Name: "approx-only-stream", Path: "/v1/eval/stream", Body: only, Weight: 2,
			ExpectStatus: http.StatusOK, CheckApproxStream: true, ExpectFrames: 4},
		{Name: "err-approx-bad-eps", Path: "/v1/eval",
			Body:   []byte(`{"systems": ["nsquad(2)"], "queries": [], "approx": {"eps": "0"}}`),
			Weight: 1, ExpectStatus: http.StatusBadRequest, CheckJSON: true},
		{Name: "err-approx-bad-delta", Path: "/v1/eval",
			Body:   []byte(`{"systems": ["nsquad(2)"], "queries": [], "approx": {"samples": 16, "delta": "2"}}`),
			Weight: 1, ExpectStatus: http.StatusBadRequest, CheckJSON: true},
		{Name: "stats", Path: "/v1/stats", Weight: 1,
			ExpectStatus: http.StatusOK, CheckJSON: true},
	}, nil
}

func heavyMix() ([]Scenario, error) {
	mix, err := squadMix()
	if err != nil {
		return nil, err
	}
	// Distinct random(seed=…) specs: each is a new canonical key, so a
	// bounded engine cache must evict under this traffic. Small depth
	// keeps each individual build cheap; the churn is the point.
	for seed := 1; seed <= 8; seed++ {
		body, err := randEvalBody(seed)
		if err != nil {
			return nil, err
		}
		mix = append(mix, Scenario{
			Name: fmt.Sprintf("eval-random-seed%d", seed), Path: "/v1/eval",
			Body: body, Weight: 1, ExpectStatus: http.StatusOK, CheckJSON: true,
		})
	}
	return mix, nil
}

// randEvalBody names one random(seed=…) system with a constraint query
// against its designated agent/action (a0 performs alpha* in every
// generated system).
func randEvalBody(seed int) ([]byte, error) {
	batch, err := query.MarshalBatch([]query.Query{
		query.ConstraintQuery{
			Fact:  logic.Does("a0", randsys.DesignatedAction),
			Agent: "a0", Action: randsys.DesignatedAction,
		},
	})
	if err != nil {
		return nil, err
	}
	doc := fmt.Sprintf(`{"systems": ["random(seed=%d,depth=4,branch=2,agents=2)"], "queries": %s}`,
		seed, batch)
	return []byte(doc), nil
}
