// Command pakcheck analyzes probabilistic constraints µ(φ@α | α) ≥ p on
// a purely probabilistic system stored as JSON. Every analysis is built
// as a list of query values (see pak's unified query API) and routed
// through one parallel EvalBatch call; the tables below are rendered
// from the uniform results.
//
// Usage:
//
//	pakcheck -system sys.json -query query.json [-dump] [-eps 1/10] [-delta 1/10] [-parallel N]
//	pakcheck -system sys.json -batch queries.json [-parallel N]
//	pakcheck -scenario "nsquad(3)" -batch queries.json
//
// The system comes either from a JSON document produced by
// pak.MarshalSystem (see internal/encode for the schema) or from the
// scenario registry by name + params (-scenario; the catalog is
// SCENARIOS.md). With -query, the document names the
// agent, the proper action, the condition fact and an optional
// threshold, and pakcheck expands it into the full constraint analysis
// (the paper's complete battery):
//
//	{
//	  "agent": "Alice",
//	  "action": "fire",
//	  "threshold": "95/100",
//	  "fact": {"op":"and","args":[
//	    {"op":"does","agent":"Alice","action":"fire"},
//	    {"op":"does","agent":"Bob","action":"fire"}]}
//	}
//
// With -batch, the document is a JSON array of explicit query specs
// (pak.ParseQueryBatch's schema, produced by pak.MarshalQueryBatch), and
// pakcheck evaluates exactly those, reporting one row per query.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"

	"pak"
	"pak/internal/encode"
	"pak/internal/ratutil"
	"pak/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pakcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	systemPath := fs.String("system", "", "path to the system JSON document")
	scenarioSpec := fs.String("scenario", "", `registry scenario spec, e.g. "nsquad(3)" (alternative to -system; see SCENARIOS.md)`)
	sweepSpec := fs.String("sweep", "", `space-valued spec, e.g. "sweep(nsquad,loss=0.0..0.5/0.1)": render the query's min/max envelope over every adversary assignment`)
	queryPath := fs.String("query", "", "path to a constraint query document (agent/action/fact/threshold)")
	batchPath := fs.String("batch", "", "path to a query-batch JSON array (explicit query specs)")
	dump := fs.Bool("dump", false, "print the system tree before the analysis")
	epsStr := fs.String("eps", "1/10", "ε for the PAK analysis (Theorem 7.1)")
	deltaStr := fs.String("delta", "1/10", "δ for the PAK analysis (Theorem 7.1)")
	parallel := fs.Int("parallel", 0, "EvalBatch workers (0 = GOMAXPROCS)")
	stream := fs.Bool("stream", false, "with -batch: render each result as it finishes (EvalStream) instead of one final table")
	approxStr := fs.String("approx", "", `approximate tier, e.g. "eps=1/20,delta=1/100" or "samples=500,seed=3": answer supported queries from a seeded sample first, then refine to exact`)
	approxOnly := fs.Bool("approx-only", false, "with -approx: skip exact refinement, answer from samples alone")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: pakcheck {-system sys.json | -scenario spec | -sweep space} {-query query.json | -batch queries.json}\n")
		fmt.Fprintf(stderr, "                [-dump] [-eps 1/10] [-delta 1/10] [-parallel N] [-stream]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
-query expands one constraint document into the full analysis battery;
-batch evaluates an explicit query-spec array (pak.ParseQueryBatch's
format, produced by pakrand -batch or pak.MarshalQueryBatch) through one
parallel EvalBatch call, one row per query. -stream renders each -batch
result the moment it finishes (EvalStream) instead of one final table —
progressive output for huge batches, with a terminal line naming how
the stream ended.

-sweep evaluates ONE query (the -query document's constraint, or a
single-element -batch) under every assignment of an adversary space —
"sweep(nsquad,loss=0.0..0.5/0.1)" ranges the loss, defaults fill the
rest (see SCENARIOS.md for each scenario's sweep example) — rendering
one line per assignment as it finishes with the running [min, max]
envelope, then the envelope table: bounds, witness assignments, skipped
assignments, visited count. The same evaluation is POST /v1/envelope on
pakd.

Examples:
  pakcheck -system sys.json -query query.json      the complete constraint battery
  pakcheck -system sys.json -batch queries.json    evaluate explicit query specs
  pakcheck -scenario "nsquad(3)" -batch q.json     a registry system, no JSON needed
  pakcheck -system sys.json -batch q.json -parallel 1   serial evaluation (same results)
  pakcheck -scenario "nsquad(3)" -batch q.json -stream -parallel 1
                                                   stream results in input order
  pakcheck -sweep "sweep(nsquad,loss=0.0..0.5/0.1)" -query q.json
                                                   the constraint's envelope over the loss sweep
  pakcheck -scenario "nsquad(3)" -batch q.json -approx eps=1/20,delta=1/100
                                                   approx-first: seeded estimates with exact-
                                                   rational CIs, refined to exact (ciCovered)
  pakcheck -sweep "sweep(nsquad,loss=0..1/2/1/10)" -query q.json -approx samples=2400,seed=21
                                                   sampled-first sweep: exact evaluation only
                                                   where an assignment's CI could still move
                                                   the envelope (pruned assignments listed)

-approx enables the approximate tier: supported queries (constraint,
expectation, threshold, belief-at-local) answer first from a seeded
Monte-Carlo sample with an exact-rational Hoeffding interval, then
refine to the exact value; the report marks whether the exact value
landed inside the interval (ciCovered). Keys: eps, delta (rationals),
samples, seed (integers). Same seed and budget => byte-identical
estimates. With -sweep, -approx switches to the sampled-first envelope:
assignments whose interval cannot reach the running min/max are pruned
without exact evaluation (correct with probability >= 1 - N*delta).
`)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sources := 0
	for _, src := range []string{*systemPath, *scenarioSpec, *sweepSpec} {
		if src != "" {
			sources++
		}
	}
	if sources != 1 || (*queryPath == "") == (*batchPath == "") {
		fmt.Fprintln(stderr, "pakcheck: exactly one of -system / -scenario / -sweep and exactly one of -query / -batch are required")
		fs.Usage()
		return 2
	}
	if *stream && *batchPath == "" {
		fmt.Fprintln(stderr, "pakcheck: -stream requires -batch (the -query battery renders as one report)")
		return 2
	}
	if *stream && *sweepSpec != "" {
		fmt.Fprintln(stderr, "pakcheck: -sweep always renders progressively; -stream applies to -batch only")
		return 2
	}
	if *approxOnly && *approxStr == "" {
		fmt.Fprintln(stderr, "pakcheck: -approx-only requires -approx")
		return 2
	}
	approxSpec, err := parseApproxFlag(*approxStr, *approxOnly)
	if err != nil {
		fmt.Fprintf(stderr, "pakcheck: -approx: %v\n", err)
		return 2
	}
	if approxSpec != nil && *sweepSpec == "" && *batchPath == "" {
		fmt.Fprintln(stderr, "pakcheck: -approx applies to -batch and -sweep (the -query battery always reports exact values)")
		return 2
	}

	if *sweepSpec != "" {
		inner, err := sweepInnerQuery(*queryPath, *batchPath)
		if err != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", err)
			return 1
		}
		opts := []pak.EvalOption{}
		if *parallel > 0 {
			opts = append(opts, pak.WithParallelism(*parallel))
		}
		if approxSpec != nil {
			if err := sweepRunSampled(stdout, *sweepSpec, inner, *approxSpec, opts); err != nil {
				fmt.Fprintf(stderr, "pakcheck: %v\n", err)
				return 1
			}
			return 0
		}
		if err := sweepRun(stdout, *sweepSpec, inner, opts); err != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", err)
			return 1
		}
		return 0
	}

	var sys *pak.System
	if *scenarioSpec != "" {
		built, err := pak.BuildScenario(*scenarioSpec)
		if err != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", err)
			return 1
		}
		sys = built
	} else {
		sysData, err := os.ReadFile(*systemPath)
		if err != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", err)
			return 1
		}
		sys, err = pak.UnmarshalSystem(sysData)
		if err != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", err)
			return 1
		}
	}
	eps, err := ratutil.Parse(*epsStr)
	if err != nil {
		fmt.Fprintf(stderr, "pakcheck: -eps: %v\n", err)
		return 2
	}
	delta, err := ratutil.Parse(*deltaStr)
	if err != nil {
		fmt.Fprintf(stderr, "pakcheck: -delta: %v\n", err)
		return 2
	}

	if *dump {
		fmt.Fprint(stdout, report.Section("System", sys.Dump()))
	}

	opts := []pak.EvalOption{}
	if *parallel > 0 {
		opts = append(opts, pak.WithParallelism(*parallel))
	}
	if approxSpec != nil {
		opts = append(opts, pak.WithApprox(*approxSpec))
	}

	if *batchPath != "" {
		data, readErr := os.ReadFile(*batchPath)
		if readErr != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", readErr)
			return 1
		}
		qs, parseErr := pak.ParseQueryBatch(data)
		if parseErr != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", parseErr)
			return 1
		}
		if *stream {
			if err := streamBatch(stdout, sys, qs, approxSpec, opts); err != nil {
				fmt.Fprintf(stderr, "pakcheck: %v\n", err)
				return 1
			}
			return 0
		}
		if err := analyzeBatch(stdout, sys, qs, opts); err != nil {
			fmt.Fprintf(stderr, "pakcheck: %v\n", err)
			return 1
		}
		return 0
	}

	queryData, err := os.ReadFile(*queryPath)
	if err != nil {
		fmt.Fprintf(stderr, "pakcheck: %v\n", err)
		return 1
	}
	query, fact, err := encode.ParseQuery(queryData)
	if err != nil {
		fmt.Fprintf(stderr, "pakcheck: %v\n", err)
		return 1
	}
	if err := analyze(stdout, sys, query, fact, eps, delta, opts); err != nil {
		fmt.Fprintf(stderr, "pakcheck: %v\n", err)
		return 1
	}
	return 0
}

// analyze expands the single constraint document into the complete
// analysis battery, evaluates it as one batch, and renders the report.
func analyze(w io.Writer, sys *pak.System, q encode.Query, fact pak.Fact, eps, delta *big.Rat, opts []pak.EvalOption) error {
	e := pak.NewEngine(sys)
	if err := e.IsProper(q.Agent, q.Action); err != nil {
		return err
	}
	var p *big.Rat
	if q.Threshold != "" {
		parsed, perr := ratutil.Parse(q.Threshold)
		if perr != nil {
			return fmt.Errorf("threshold: %w", perr)
		}
		p = parsed
	}

	// The battery, as one batch. Positions are fixed; the optional
	// threshold block is appended at the end.
	const (
		idxConstraint = iota
		idxExpectation
		idxBeliefs
		idxIndependence
		idxThmExpectation
		idxThmPAK
		idxThmKoP
		idxThreshold // present only when p != nil
		idxThmSufficiency
	)
	qs := []pak.Query{
		pak.ConstraintQuery{Fact: fact, Agent: q.Agent, Action: q.Action, Threshold: p},
		pak.ExpectationQuery{Fact: fact, Agent: q.Agent, Action: q.Action},
		pak.BeliefQuery{Fact: fact, Agent: q.Agent, Action: q.Action},
		pak.IndependenceQuery{Fact: fact, Agent: q.Agent, Action: q.Action},
		pak.TheoremQuery{Theorem: pak.TheoremExpectation, Fact: fact, Agent: q.Agent, Action: q.Action},
		pak.TheoremQuery{Theorem: pak.TheoremPAK, Fact: fact, Agent: q.Agent, Action: q.Action, Delta: delta, Eps: eps},
		pak.TheoremQuery{Theorem: pak.TheoremKoP, Fact: fact, Agent: q.Agent, Action: q.Action},
	}
	if p != nil {
		qs = append(qs,
			pak.ThresholdQuery{Fact: fact, Agent: q.Agent, Action: q.Action, P: p},
			pak.TheoremQuery{Theorem: pak.TheoremSufficiency, Fact: fact, Agent: q.Agent, Action: q.Action, P: p},
		)
	}
	results, err := pak.EvalBatch(e, qs, opts...)
	if err != nil {
		return err
	}

	mu := results[idxConstraint].Value
	exp := results[idxExpectation].Value
	beliefs := results[idxBeliefs].Values
	indep := results[idxIndependence].Flags

	summary := report.NewTable("quantity", "value")
	summary.AddRow("system", sys.String())
	summary.AddRow("agent / action", fmt.Sprintf("%s / %s", q.Agent, q.Action))
	summary.AddRow("condition φ", fact.String())
	min, max, err := e.BeliefRangeAtAction(fact, q.Agent, q.Action)
	if err != nil {
		return err
	}
	summary.AddRow("µ(φ@α | α)", fmt.Sprintf("%s ≈ %s", mu.RatString(), mu.FloatString(6)))
	summary.AddRow("E[β(φ)@α | α]", fmt.Sprintf("%s ≈ %s", exp.RatString(), exp.FloatString(6)))
	summary.AddRow("β range when acting", fmt.Sprintf("[%s, %s]", min.RatString(), max.RatString()))
	summary.AddRow("local-state independent", indep["independent"])
	summary.AddRow("  α deterministic (L4.3a)", indep["deterministic"])
	summary.AddRow("  φ past-based (L4.3b)", indep["pastBased"])
	fmt.Fprint(w, report.Section("Constraint analysis", summary.Render()))

	states := make([]string, 0, len(beliefs))
	for s := range beliefs {
		states = append(states, s)
	}
	sort.Strings(states)
	byState := report.NewTable("acting local state", "β(φ)")
	for _, s := range states {
		byState.AddRow(s, fmt.Sprintf("%s ≈ %s", beliefs[s].RatString(), beliefs[s].FloatString(6)))
	}
	fmt.Fprint(w, report.Section("Beliefs when acting (by information state)", byState.Render()))

	if p != nil {
		tm := results[idxThreshold].Value
		th := report.NewTable("quantity", "value")
		th.AddRow("threshold p", p.RatString())
		th.AddRow("constraint satisfied (µ ≥ p)", results[idxConstraint].Passed())
		th.AddRow("µ(β ≥ p | α)", fmt.Sprintf("%s ≈ %s", tm.RatString(), tm.FloatString(6)))
		th.AddRow("always meets threshold", results[idxThmSufficiency].Flags["premiseMet"])
		fmt.Fprint(w, report.Section("Threshold analysis", th.Render()))
	}

	expRep := results[idxThmExpectation]
	pakRep := results[idxThmPAK]
	kop := results[idxThmKoP]
	thms := report.NewTable("result", "verdict", "detail")
	thms.AddRow("Theorem 6.2 (expectation)", verdict(expRep.Passed()),
		fmt.Sprintf("µ=%s E[β]=%s", expRep.Value.RatString(), expRep.Values["expectedBelief"].RatString()))
	thms.AddRow("Theorem 7.1 (PAK)", verdict(pakRep.Passed()),
		fmt.Sprintf("µ(β≥%s|α)=%s bound=%s", pakRep.Values["beliefLevel"].RatString(),
			pakRep.Values["beliefMeasure"].RatString(), pakRep.Values["bound"].RatString()))
	thms.AddRow("Lemma F.1 (KoP limit)", verdict(kop.Passed()),
		fmt.Sprintf("minβ=%s knows=%v", kop.Values["minBelief"].RatString(), kop.Flags["alwaysKnows"]))
	fmt.Fprint(w, report.Section("Theorem checks", thms.Render()))
	return nil
}

// parseApproxFlag parses the -approx value: comma-separated key=value
// pairs with keys eps, delta (rationals) and samples, seed (integers).
// An empty value means the tier is off (nil spec).
func parseApproxFlag(s string, only bool) (*pak.ApproxSpec, error) {
	if s == "" {
		return nil, nil
	}
	spec := pak.ApproxSpec{Only: only}
	for _, kv := range strings.Split(s, ",") {
		key, val, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found || val == "" {
			return nil, fmt.Errorf("expected key=value, got %q", kv)
		}
		switch key {
		case "eps":
			r, err := ratutil.Parse(val)
			if err != nil {
				return nil, fmt.Errorf("eps: %w", err)
			}
			spec.Eps = r
		case "delta":
			r, err := ratutil.Parse(val)
			if err != nil {
				return nil, fmt.Errorf("delta: %w", err)
			}
			spec.Delta = r
		case "samples":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("samples: %w", err)
			}
			spec.Samples = n
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed: %w", err)
			}
			spec.Seed = n
		default:
			return nil, fmt.Errorf("unknown key %q (have eps, delta, samples, seed)", key)
		}
	}
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	return &norm, nil
}

// estimateStr renders a sampled estimate's interval and provenance.
func estimateStr(est *pak.QueryEstimate) string {
	return fmt.Sprintf("∈ [%s, %s] (n=%d of %d, seed=%d)",
		est.Lo.RatString(), est.Hi.RatString(), est.N, est.Samples, est.Seed)
}

// streamBatch evaluates an explicit query list through EvalStream,
// printing each result the moment its worker finishes — progressive
// rendering for huge batches, where the final table would otherwise
// arrive all at once at the end. Lines carry the query's batch index
// (completion order and input order coincide under -parallel 1), and
// the terminal frame reports how the stream ended, deadline truncation
// included. Under -approx supported queries print two lines — the
// sampled estimate (stage "approx"), then the refined exact value with
// its ciCovered self-check — and only final frames count toward the
// progress tally.
func streamBatch(w io.Writer, sys *pak.System, qs []pak.Query, approx *pak.ApproxSpec, opts []pak.EvalOption) error {
	fmt.Fprintf(w, "Streaming %d queries over %s\n", len(qs), sys)
	done, failed := 0, 0
	for f := range pak.EvalStream(pak.NewEngine(sys), qs, opts...) {
		if f.Terminal() {
			fmt.Fprintf(w, "stream %s: %d of %d queries evaluated, %d failed\n",
				f.Status, done, len(qs), failed)
			break
		}
		res := f.Result
		// An approx frame is the slot's final answer only in -approx-only
		// mode (or when a deadline cuts refinement, which the terminal
		// status reports); otherwise the exact frame follows.
		final := f.Stage != pak.StageApprox || (approx != nil && approx.Only)
		if final {
			done++
		}
		stage := ""
		if f.Stage != "" {
			stage = fmt.Sprintf(" %-6s", "["+string(f.Stage)+"]")
		}
		tally := fmt.Sprintf("[%d/%d]", done, len(qs))
		if res.Err != nil {
			if final {
				failed++
			}
			fmt.Fprintf(w, "%s%s #%d %s ERROR %v\n", tally, stage, f.Index, res.Kind, res.Err)
			continue
		}
		value := "-"
		if res.Value != nil {
			value = fmt.Sprintf("%s ≈ %s", res.Value.RatString(), res.Value.FloatString(6))
		}
		verdictStr := string(res.Verdict)
		if verdictStr == "" {
			verdictStr = "-"
		}
		detail := res.Detail
		if f.Stage == pak.StageApprox && res.Estimate != nil {
			detail = estimateStr(res.Estimate)
		} else if f.Stage == pak.StageExact && res.Estimate != nil {
			detail += fmt.Sprintf(" ciCovered=%v", res.Flags[pak.FlagCICovered])
		}
		fmt.Fprintf(w, "%s%s #%d %s %s %s %s\n", tally, stage, f.Index, res.Kind, value, verdictStr, detail)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d queries failed", failed, len(qs))
	}
	return nil
}

// analyzeBatch evaluates an explicit query list and renders one row per
// query: kind, headline value, verdict and detail.
func analyzeBatch(w io.Writer, sys *pak.System, qs []pak.Query, opts []pak.EvalOption) error {
	results, err := pak.EvalBatch(pak.NewEngine(sys), qs, opts...)
	tb := report.NewTable("#", "kind", "value", "verdict", "detail")
	for i, res := range results {
		if res.Err != nil {
			tb.AddRow(i, res.Kind, "-", "ERROR", res.Err.Error())
			continue
		}
		value := "-"
		if res.Value != nil {
			value = fmt.Sprintf("%s ≈ %s", res.Value.RatString(), res.Value.FloatString(6))
		}
		verdictStr := string(res.Verdict)
		if verdictStr == "" {
			verdictStr = "-"
		}
		detail := res.Detail
		if res.Witness != nil {
			detail += fmt.Sprintf(" witness=%d runs", res.Witness.Count())
		}
		if res.Estimate != nil {
			// The sampled interval rides along; refined results add the
			// self-check (a false ciCovered is the δ-probability miss),
			// approx-only results stand on the estimate alone.
			detail = fmt.Sprintf("estimate %s %s", res.Estimate.P.RatString(), estimateStr(res.Estimate))
			if covered, refined := res.Flags[pak.FlagCICovered]; refined {
				detail += fmt.Sprintf(" ciCovered=%v", covered)
			}
		}
		tb.AddRow(i, res.Kind, value, verdictStr, detail)
	}
	fmt.Fprint(w, report.Section(fmt.Sprintf("Query batch (%d queries over %s)", len(qs), sys), tb.Render()))
	// Render after the table so partial results still print alongside the
	// error exit.
	if err != nil {
		return err
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "holds"
	}
	return "VIOLATED"
}

// sweepInnerQuery loads the single query a sweep evaluates: the -query
// constraint document (threshold included when present), or a -batch
// array holding exactly one spec.
func sweepInnerQuery(queryPath, batchPath string) (pak.Query, error) {
	if batchPath != "" {
		data, err := os.ReadFile(batchPath)
		if err != nil {
			return nil, err
		}
		qs, err := pak.ParseQueryBatch(data)
		if err != nil {
			return nil, err
		}
		if len(qs) != 1 {
			return nil, fmt.Errorf("-sweep folds one query's envelope; the batch has %d (sweep them one at a time)", len(qs))
		}
		return qs[0], nil
	}
	data, err := os.ReadFile(queryPath)
	if err != nil {
		return nil, err
	}
	q, fact, err := encode.ParseQuery(data)
	if err != nil {
		return nil, err
	}
	var p *big.Rat
	if q.Threshold != "" {
		if p, err = ratutil.Parse(q.Threshold); err != nil {
			return nil, fmt.Errorf("threshold: %w", err)
		}
	}
	return pak.ConstraintQuery{Fact: fact, Agent: q.Agent, Action: q.Action, Threshold: p}, nil
}

// sweepRun resolves the space, evaluates the inner query's envelope
// over it through EnvelopeStream, and renders progressively: one line
// per assignment the moment it finishes, carrying the running [min,
// max], then the final envelope table — bounds, witness assignments,
// skips, visited count, and how the sweep ended.
func sweepRun(w io.Writer, spec string, inner pak.Query, opts []pak.EvalOption) error {
	sw, err := pak.ResolveSweep(spec)
	if err != nil {
		return err
	}
	// Lazy items: each assignment's engine builds when its worker first
	// reaches it, so the first progress line prints as soon as the first
	// engine is up — not after every engine has built.
	items := pak.SweepItemsLazy(sw)
	fmt.Fprintf(w, "Sweeping %s: %d assignments of %q\n", sw.Canonical(), len(items), inner)
	frames, err := pak.EnvelopeStream(pak.EnvelopeQuery{Inner: inner, Items: items}, opts...)
	if err != nil {
		return err
	}
	done := 0
	slots := make([]pak.QueryResult, len(items))
	for f := range frames {
		if f.Terminal() {
			return renderEnvelope(w, sw, items, slots, f)
		}
		done++
		slots[f.Index] = f.Result
		value := "-"
		switch {
		case f.Result.Err != nil && pak.IsEnvelopeSkip(f.Result.Err):
			value = fmt.Sprintf("SKIP %v", f.Result.Err)
		case f.Result.Err != nil:
			value = fmt.Sprintf("ERROR %v", f.Result.Err)
		case f.Result.Value != nil:
			value = fmt.Sprintf("%s ≈ %s", f.Result.Value.RatString(), f.Result.Value.FloatString(6))
		}
		env := "∅"
		if f.Envelope.Defined() {
			env = fmt.Sprintf("[%s, %s]", f.Envelope.Min.RatString(), f.Envelope.Max.RatString())
		}
		fmt.Fprintf(w, "[%d/%d] #%d %-24s %-28s env=%s\n",
			done, len(items), f.Index, f.Assignment, value, env)
	}
	return fmt.Errorf("sweep ended without a terminal frame")
}

// sweepRunSampled is the sampled-first sweep: a coarse seeded pass
// estimates the query under every assignment, exact evaluation runs
// only where an assignment's confidence interval could still attain the
// envelope's min or max, and the pruned assignments are reported rather
// than exactly evaluated — correct with probability ≥ 1 − N·δ.
func sweepRunSampled(w io.Writer, spec string, inner pak.Query, approx pak.ApproxSpec, opts []pak.EvalOption) error {
	sw, err := pak.ResolveSweep(spec)
	if err != nil {
		return err
	}
	items, err := pak.SweepItems(sw)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Sampled-first sweep of %s: %d assignments of %q\n", sw.Canonical(), len(items), inner)
	out, err := pak.EvalEnvelopeSampled(pak.EnvelopeQuery{Inner: inner, Items: items}, approx, opts...)
	if err != nil {
		return err
	}
	if out.Estimates == nil {
		fmt.Fprintln(w, "query not approximable: fell back to the exhaustive sweep")
	}
	pruned := make(map[string]bool, len(out.Pruned))
	for _, a := range out.Pruned {
		pruned[a] = true
	}
	for i, item := range items {
		line := "-"
		switch {
		case out.Estimates != nil && out.Estimates[i] != nil:
			est := out.Estimates[i]
			line = fmt.Sprintf("%s %s", est.P.RatString(), estimateStr(est))
		case out.Estimates != nil:
			line = "estimate failed (kept for exact evaluation)"
		}
		mark := ""
		if pruned[item.Assignment] {
			mark = "  PRUNED (interval cannot reach the envelope)"
		}
		fmt.Fprintf(w, "[%d/%d] %-24s %s%s\n", i+1, len(items), item.Assignment, line, mark)
	}

	env := out.Range
	tb := report.NewTable("quantity", "value")
	tb.AddRow("space", sw.Canonical())
	if env.Defined() {
		tb.AddRow("min", fmt.Sprintf("%s ≈ %s", env.Min.RatString(), env.Min.FloatString(6)))
		tb.AddRow("min at", env.ArgMin)
		tb.AddRow("max", fmt.Sprintf("%s ≈ %s", env.Max.RatString(), env.Max.FloatString(6)))
		tb.AddRow("max at", env.ArgMax)
	} else {
		tb.AddRow("envelope", "undefined (no assignment produced a value)")
	}
	tb.AddRow("exactly evaluated", fmt.Sprintf("%d/%d assignments", env.Visited, env.Total))
	tb.AddRow("pruned by sampling", fmt.Sprintf("%d: %v", len(out.Pruned), out.Pruned))
	if len(env.Skipped) > 0 {
		tb.AddRow("skipped", fmt.Sprintf("%d: %v", len(env.Skipped), env.Skipped))
	}
	tb.AddRow("ended", string(out.Status))
	if out.Estimates != nil {
		tb.AddRow("confidence", fmt.Sprintf("correct w.p. ≥ 1 − %d·δ (δ per estimate)", len(items)))
	}
	fmt.Fprint(w, report.Section("Adversary envelope (sampled-first)", tb.Render()))

	if out.Status != pak.StreamComplete {
		return fmt.Errorf("sweep %s after %d of %d assignments: the envelope is partial", out.Status, env.Visited, env.Total)
	}
	if out.Err != nil {
		return out.Err
	}
	if !env.Defined() {
		return fmt.Errorf("envelope undefined: the query produced no value under any of the %d assignments", len(items))
	}
	return nil
}

// renderEnvelope prints the final envelope table and maps the sweep's
// ending to the exit contract: a partial, undefined, or hard-failed
// sweep errors — bounds that silently exclude failed assignments must
// never exit 0 as if they covered the whole space.
func renderEnvelope(w io.Writer, sw *pak.ResolvedSweep, items []pak.EnvelopeItem, slots []pak.QueryResult, terminal pak.EnvelopeFrame) error {
	env := terminal.Envelope
	tb := report.NewTable("quantity", "value")
	tb.AddRow("space", sw.Canonical())
	if env.Defined() {
		tb.AddRow("min", fmt.Sprintf("%s ≈ %s", env.Min.RatString(), env.Min.FloatString(6)))
		tb.AddRow("min at", env.ArgMin)
		tb.AddRow("max", fmt.Sprintf("%s ≈ %s", env.Max.RatString(), env.Max.FloatString(6)))
		tb.AddRow("max at", env.ArgMax)
	} else {
		tb.AddRow("envelope", "undefined (no assignment produced a value)")
	}
	tb.AddRow("visited", fmt.Sprintf("%d/%d assignments", env.Visited, env.Total))
	if len(env.Skipped) > 0 {
		tb.AddRow("skipped", fmt.Sprintf("%d: %v", len(env.Skipped), env.Skipped))
	}
	tb.AddRow("ended", string(terminal.Status))
	fmt.Fprint(w, report.Section("Adversary envelope", tb.Render()))

	if terminal.Status != pak.StreamComplete {
		return fmt.Errorf("sweep %s after %d of %d assignments: the envelope is partial", terminal.Status, env.Visited, env.Total)
	}
	if failures := pak.EnvelopeFailure(slots); failures != "" {
		return fmt.Errorf("the envelope excludes failed assignments — %s", failures)
	}
	if !env.Defined() {
		return fmt.Errorf("envelope undefined: the query produced no value under any of the %d assignments", len(items))
	}
	return nil
}
