package pak_test

// The benchmark harness: one benchmark per paper experiment (E1..E10, see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for the recorded
// paper-vs-measured values), plus performance benchmarks characterizing
// the engine itself. Run with:
//
//	go test -bench=. -benchmem
//
// Every experiment benchmark also *verifies* its result on each iteration
// (b.Fatal on mismatch), so the bench run doubles as a reproduction run.

import (
	"bytes"
	"fmt"
	"io"
	bigmath "math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pak"
	"pak/internal/experiments"
	"pak/internal/montecarlo"
	"pak/internal/pps"
	"pak/internal/randsys"
	"pak/internal/runset"
)

// requireMatch runs one experiment and fails the benchmark if any row
// diverges from the paper.
func requireMatch(b *testing.B, build func() (experiments.Result, error)) {
	b.Helper()
	res, err := build()
	if err != nil {
		b.Fatal(err)
	}
	if !res.AllMatch() {
		for _, row := range res.Rows {
			if !row.Match {
				b.Fatalf("%s: %s: paper=%s measured=%s", res.ID, row.Quantity, row.Paper, row.Measured)
			}
		}
	}
}

// BenchmarkE1FiringSquad regenerates Example 1's exact claims: the
// constraint value 99/100, Alice's information states {1, 0, 99/100}, and
// the threshold measures 991/1000 and 9/1000.
func BenchmarkE1FiringSquad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E1FiringSquad)
	}
}

// BenchmarkE2Figure1 regenerates the Figure 1 counterexamples (sufficiency
// and expectation both fail without local-state independence).
func BenchmarkE2Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E2Figure1)
	}
}

// BenchmarkE3Theorem52Sweep regenerates the Figure 2 construction sweep:
// µ = p while µ(β ≥ p | α) = ε and the non-revealing belief is
// (p−ε)/(1−ε).
func BenchmarkE3Theorem52Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E3Theorem52)
	}
}

// BenchmarkE4ExpectationTheorem machine-checks Theorem 6.2 on 25 random
// systems per iteration, across the four (action × fact) modes.
func BenchmarkE4ExpectationTheorem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, func() (experiments.Result, error) {
			return experiments.E4Expectation(25, int64(i)+1)
		})
	}
}

// BenchmarkE5PAKFrontier regenerates the Theorem 7.1 / Corollary 7.2
// frontier on the T-hat family and FS.
func BenchmarkE5PAKFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E5PAKFrontier)
	}
}

// BenchmarkE6ImprovedFS regenerates the Section 8 improvement
// (99/100 → 990/991 ≈ 0.99899).
func BenchmarkE6ImprovedFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E6ImprovedFS)
	}
}

// BenchmarkE7MonteCarloConvergence cross-validates the exact engine with
// 30k samples per iteration (Hoeffding 99% CIs must contain the exact
// values).
func BenchmarkE7MonteCarloConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, func() (experiments.Result, error) {
			return experiments.E7MonteCarlo(30_000, int64(i)+1)
		})
	}
}

// BenchmarkE8KoPLimit regenerates the degenerate-threshold (Knowledge of
// Preconditions) limit on the lossless firing squad.
func BenchmarkE8KoPLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E8KoPLimit)
	}
}

// BenchmarkE9IndependenceLemma machine-checks Lemma 4.3 on 25 random
// systems per iteration and re-detects the Figure 1 violation.
func BenchmarkE9IndependenceLemma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, func() (experiments.Result, error) {
			return experiments.E9Independence(25, int64(i)+1)
		})
	}
}

// BenchmarkE10CommonBelief computes the Monderer–Samet common p-belief
// fixed points on T-hat and FS.
func BenchmarkE10CommonBelief(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E10CommonBelief)
	}
}

// BenchmarkE11CommonKnowledge contrasts common knowledge with common
// p-belief on the lossy vs lossless firing squad (coordinated attack).
func BenchmarkE11CommonKnowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E11CommonKnowledge)
	}
}

// BenchmarkE12Martingale verifies the Bayesian belief martingale
// (E[β at t] = prior) exactly on T-hat and FS.
func BenchmarkE12Martingale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E12Martingale)
	}
}

// BenchmarkE13LossSensitivity sweeps the loss probability and verifies the
// closed forms 1−ℓ² and (1−ℓ²)/(1−ℓ²(1−ℓ)) exactly.
func BenchmarkE13LossSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E13LossSensitivity)
	}
}

// BenchmarkE14NSquad verifies the generalized n-agent closed forms.
func BenchmarkE14NSquad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireMatch(b, experiments.E14NSquad)
	}
}

// --- Performance benchmarks ---

// BenchmarkPerfUnfoldFiringSquad measures protocol unfolding (the paper's
// Section 2.2 construction of a pps from a joint protocol).
func BenchmarkPerfUnfoldFiringSquad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pak.FiringSquad(pak.Rat(1, 10), pak.FSOriginal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfEngineQueries measures a full constraint analysis (µ, E[β],
// independence, PAK) on the firing squad, engine construction included.
func BenchmarkPerfEngineQueries(b *testing.B) {
	sys, err := pak.FiringSquad(pak.Rat(1, 10), pak.FSOriginal)
	if err != nil {
		b.Fatal(err)
	}
	both := pak.And(pak.Does("Alice", "fire"), pak.Does("Bob", "fire"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pak.NewEngine(sys)
		if _, err := e.ConstraintProb(both, "Alice", "fire"); err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExpectedBelief(both, "Alice", "fire"); err != nil {
			b.Fatal(err)
		}
		if _, err := e.CheckPAKSquare(both, "Alice", "fire", pak.Rat(1, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfGenerateScale measures random-system generation and the
// Theorem 6.2 check as the tree deepens.
func BenchmarkPerfGenerateScale(b *testing.B) {
	for _, depth := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := randsys.Default(int64(i) + 1)
				cfg.Depth = depth
				cfg.ActionTime = depth / 2
				sys, err := randsys.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e := pak.NewEngine(sys)
				rep, err := e.CheckExpectation(pak.RandPastFact(sys, int64(i)), "a0", randsys.DesignatedAction)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Holds() {
					b.Fatal("Theorem 6.2 violated")
				}
			}
		})
	}
}

// BenchmarkPerfMeasureQueries measures exact event-measure computation on
// a generated system.
func BenchmarkPerfMeasureQueries(b *testing.B) {
	cfg := randsys.Default(7)
	cfg.Depth = 6
	cfg.ActionTime = 3
	sys, err := randsys.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	full := sys.FullSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sys.Measure(full); got.Sign() <= 0 {
			b.Fatal("bad measure")
		}
	}
}

// BenchmarkPerfSampling measures run sampling throughput on the firing
// squad system.
func BenchmarkPerfSampling(b *testing.B) {
	sys, err := pak.FiringSquad(pak.Rat(1, 10), pak.FSOriginal)
	if err != nil {
		b.Fatal(err)
	}
	s := montecarlo.NewSampler(sys, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.SampleRun()
	}
}

// BenchmarkPerfProtocolSim measures protocol-level simulation throughput
// (no unfolding).
func BenchmarkPerfProtocolSim(b *testing.B) {
	m, err := pak.FiringSquadModel(pak.Rat(1, 10), pak.FSOriginal)
	if err != nil {
		b.Fatal(err)
	}
	ps := montecarlo.NewProtocolSampler(m, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfNSquadScale measures unfolding + analysis of the n-agent
// firing squad as the squad grows (tree size is exponential in n).
func BenchmarkPerfNSquadScale(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := pak.NFiringSquadSystem(n, pak.Rat(1, 10), false)
				if err != nil {
					b.Fatal(err)
				}
				e := pak.NewEngine(sys)
				if _, err := e.ConstraintProb(pak.AllFire(n), "General", "fire"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerfNSquadUnfold isolates the protocol unfold (Model →
// pps.System, Build's validation included) of the n-agent squad at an
// awkward-denominator loss, with no engine or query on top: the layer a
// cold sweep assignment pays before its engine exists.
func BenchmarkPerfNSquadUnfold(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pak.NFiringSquadSystem(n, pak.Rat(63, 127), false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSameShape prices the structure-sharing gate on two nsquad(4)
// systems at different losses (same labels, same tree): "cold" compares
// a resident system with a freshly built one on every iteration (the
// build is outside the timer), the case of a sweep seeding each new
// assignment's engine from its neighbour's; "warm" compares the same
// two systems again and again.
func BenchmarkSameShape(b *testing.B) {
	build := func(loss string) *pak.System {
		sys, err := pak.NFiringSquadSystem(4, pak.MustRat(loss), false)
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	b.Run("cold", func(b *testing.B) {
		x := build("1/10")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			y := build("1/5")
			b.StartTimer()
			if !pps.SameShape(x, y) {
				b.Fatal("loss neighbours compared unequal")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		x, y := build("1/10"), build("1/5")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !pps.SameShape(x, y) {
				b.Fatal("loss neighbours compared unequal")
			}
		}
	})
}

// --- Query-batch benchmarks (serial vs parallel) ---
//
// The workload is the full theorem-check battery over the 4-agent firing
// squad (every agent × every analysis kind and theorem, 40 queries).
// Each iteration starts from a cold engine so the measured time includes
// the shared-cache build; the parallel variants must beat the serial
// loop on multicore hardware, which TestQueryBatchSpeedup (in
// pak_test.go) asserts outright.

// BenchmarkQueryBatchSerialLoop is the baseline the tentpole moves away
// from: one Eval call after another on a shared engine.
func BenchmarkQueryBatchSerialLoop(b *testing.B) {
	sys, qs := queryWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pak.NewEngine(sys)
		for _, q := range qs {
			if _, err := pak.Eval(e, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQueryBatchParallel measures EvalBatch at increasing
// parallelism over a shared cold engine.
func BenchmarkQueryBatchParallel(b *testing.B) {
	sys, qs := queryWorkload(b)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := pak.NewEngine(sys)
				if _, err := pak.EvalBatch(e, qs, pak.WithParallelism(par)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Service-hardening benchmarks (cold builds, eviction) ---

// benchPost POSTs one eval request and requires a 200.
func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("eval status %d", resp.StatusCode)
	}
}

// BenchmarkColdBuildSerialVsParallel measures one request naming four
// un-cached systems against a fresh server: the serial variant pays
// sum-of-unfolds, the parallel variant pays roughly max-of-unfolds.
// The gap is the value of the concurrent cold-build path.
func BenchmarkColdBuildSerialVsParallel(b *testing.B) {
	// Empty query batch: the request measures pure build cost.
	body := `{"systems": ["random(seed=1,depth=6,branch=2)", "random(seed=2,depth=6,branch=2)",
		"random(seed=3,depth=6,branch=2)", "random(seed=4,depth=6,branch=2)"], "queries": []}`
	for _, workers := range []int{1, 4} {
		name := "serial"
		if workers > 1 {
			name = fmt.Sprintf("parallel=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// A fresh server per iteration keeps every build cold.
				ts := httptest.NewServer(pak.ServiceHandler(pak.WithServiceParallelism(workers)))
				b.StartTimer()
				benchPost(b, ts.URL, body)
				b.StopTimer()
				ts.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkEvalWithEviction measures a request stream alternating over
// three systems through a capacity-1 cache (every request rebuilds its
// engine) versus a cache that fits the working set (every request after
// the first is warm). The gap prices eviction thrash — and motivates
// sizing -engine-cache to the hot working set.
func BenchmarkEvalWithEviction(b *testing.B) {
	batch, err := pak.MarshalQueryBatch([]pak.Query{
		pak.ConstraintQuery{Fact: pak.AllFire(2), Agent: "General", Action: "fire"},
		pak.ExpectationQuery{Fact: pak.AllFire(2), Agent: "General", Action: "fire"},
	})
	if err != nil {
		b.Fatal(err)
	}
	systems := []string{"nsquad(2)", "fsquad", "nsquad(3)"}
	bodies := make([]string, len(systems))
	for i, s := range systems {
		bodies[i] = fmt.Sprintf(`{"systems": [%q], "queries": %s}`, s, batch)
	}
	for _, cacheSize := range []int{1, 8} {
		name := fmt.Sprintf("cache=%d", cacheSize)
		if cacheSize == 1 {
			name = "cache=1-thrash"
		}
		b.Run(name, func(b *testing.B) {
			ts := httptest.NewServer(pak.ServiceHandler(pak.WithServiceEngineCache(cacheSize)))
			defer ts.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, ts.URL, bodies[i%len(bodies)])
			}
		})
	}
}

// BenchmarkStoreReplaySharedBatch measures a buffered /v1/eval whose
// four systems share one batch and whose every slot is a disk-store
// hit, served by a fresh server over a populated store directory. No
// engine builds: the request pays the shared batch's canonicalization
// (once), one store Get per slot (file read and integrity checks) and
// one ResultDoc decode per slot, then the response encode.
func BenchmarkStoreReplaySharedBatch(b *testing.B) {
	qs := []pak.Query{
		pak.ConstraintQuery{Fact: pak.AllFire(2), Agent: "General", Action: "fire"},
		pak.ExpectationQuery{Fact: pak.AllFire(2), Agent: "General", Action: "fire"},
	}
	for _, p := range []int64{1, 2, 3, 4, 5, 6} {
		qs = append(qs, pak.ThresholdQuery{Fact: pak.AllFire(2), Agent: "s1", Action: "fire", P: bigmath.NewRat(p, 7)})
	}
	batch, err := pak.MarshalQueryBatch(qs)
	if err != nil {
		b.Fatal(err)
	}
	body := fmt.Sprintf(`{"systems": ["nsquad(2)", "nsquad(3)", "nsquad(n=2,improved=true)", "nsquad(n=3,loss=1/5)"], "queries": %s}`, batch)
	st, err := pak.OpenDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	populate := httptest.NewServer(pak.ServiceHandler(pak.WithServiceResultStore(st)))
	benchPost(b, populate.URL, body)
	populate.Close()

	ts := httptest.NewServer(pak.ServiceHandler(pak.WithServiceResultStore(st)))
	defer ts.Close()
	b.ReportAllocs()
	for b.Loop() {
		benchPost(b, ts.URL, body)
	}
}

// BenchmarkServeWarm measures the HTTP service path around resident
// engines: the standard batch (constraint, expectation, Theorem 6.2, a
// threshold at 9/10 and one soldier's independence) against nsquad(3),
// and a six-assignment loss sweep of the squad constraint, each through
// its buffered and its streamed endpoint. The untimed first request
// builds every engine, so an iteration pays decode, admission,
// evaluation on warm memo tables, framing and encode — no unfold.
func BenchmarkServeWarm(b *testing.B) {
	fact := pak.AllFire(3)
	batch, err := pak.MarshalQueryBatch([]pak.Query{
		pak.ConstraintQuery{Fact: fact, Agent: "General", Action: "fire"},
		pak.ExpectationQuery{Fact: fact, Agent: "General", Action: "fire"},
		pak.TheoremQuery{Theorem: pak.TheoremExpectation, Fact: fact, Agent: "General", Action: "fire"},
		pak.ThresholdQuery{Fact: fact, Agent: "General", Action: "fire", P: bigmath.NewRat(9, 10)},
		pak.IndependenceQuery{Fact: pak.Does("s1", "fire"), Agent: "General", Action: "fire"},
	})
	if err != nil {
		b.Fatal(err)
	}
	inner, err := pak.MarshalQueryBatch([]pak.Query{pak.ConstraintQuery{Fact: fact, Agent: "General", Action: "fire"}})
	if err != nil {
		b.Fatal(err)
	}
	evalBody := fmt.Sprintf(`{"systems": ["nsquad(3)"], "queries": %s}`, batch)
	envelopeBody := fmt.Sprintf(`{"space": "sweep(nsquad,n=3,loss=0..1/2/1/10)", "query": %s}`,
		strings.TrimSuffix(strings.TrimPrefix(string(inner), "["), "]"))

	ts := httptest.NewServer(pak.ServiceHandler())
	defer ts.Close()
	for _, c := range []struct{ name, path, body string }{
		{"eval", "/v1/eval", evalBody},
		{"eval-stream", "/v1/eval/stream", evalBody},
		{"envelope", "/v1/envelope", envelopeBody},
		{"envelope-stream", "/v1/envelope/stream", envelopeBody},
	} {
		b.Run(c.name, func(b *testing.B) {
			post := func() {
				resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
				if err != nil {
					b.Fatal(err)
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("%s: status %d: %.200s (%v)", c.path, resp.StatusCode, data, err)
				}
				// A stream's status line is spent before evaluation, so
				// its verdict is the terminal frame.
				if strings.HasSuffix(c.path, "/stream") && !bytes.Contains(data, []byte(`{"frame":"status","status":"complete"`)) {
					b.Fatalf("%s: stream did not complete: %.200s", c.path, data)
				}
			}
			post()
			b.ReportAllocs()
			for b.Loop() {
				post()
			}
		})
	}
}

// BenchmarkQueryBatchColdEngines measures the WithCache(false) mode:
// every query on its own engine, no shared memoization. The gap to the
// shared-cache runs is the value of the engine's memoization.
func BenchmarkQueryBatchColdEngines(b *testing.B) {
	sys, qs := queryWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pak.NewEngine(sys)
		if _, err := pak.EvalBatch(e, qs, pak.WithParallelism(8), pak.WithCache(false)); err != nil {
			b.Fatal(err)
		}
	}
}

// freshSweepItems builds one envelope item per assignment of rs, each
// on a fresh engine over a freshly unfolded system: nothing comes from
// the process-wide sweep cache, and nothing is shared between calls.
func freshSweepItems(tb testing.TB, rs *pak.ResolvedSweep) []pak.EnvelopeItem {
	tb.Helper()
	insts := rs.Instances()
	items := make([]pak.EnvelopeItem, len(insts))
	for i, inst := range insts {
		items[i] = freshItem(tb, inst.Assignment.String(), inst.Canonical)
	}
	return items
}

// freshItem builds spec through the registry onto a fresh engine and
// labels it with assignment.
func freshItem(tb testing.TB, assignment, spec string) pak.EnvelopeItem {
	tb.Helper()
	sys, err := pak.BuildScenario(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return pak.EnvelopeItem{Assignment: assignment, Spec: spec, Engine: pak.NewEngine(sys)}
}

// BenchmarkEnvelopeSharedCache pins the sweep economics: a sweep whose
// N assignments resolve through the shared engine cache
// (pak.ResolveSweep + SweepItems, the registry/EngineCache path) versus
// N isolated builds per evaluation, every system unfolded and every
// engine cold each time. After the first iteration the shared-cache
// path pays zero unfolds and folds over warm memoization; the isolated
// path rebuilds everything, so the per-op gap is what the cache saves.
func BenchmarkEnvelopeSharedCache(b *testing.B) {
	const space = "sweep(nsquad,n=3,loss=0..1/2/1/10)"
	inner := pak.ConstraintQuery{Fact: pak.AllFire(3), Agent: "General", Action: "fire"}

	b.Run("shared-cache-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := pak.EvalSweep(space, inner)
			if err != nil || out.Result.Envelope.Visited != 6 {
				b.Fatalf("sweep: %v (%+v)", err, out.Result.Envelope)
			}
		}
	})

	b.Run("isolated-resolve", func(b *testing.B) {
		rs, err := pak.ResolveSweep(space)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			out, err := pak.EvalEnvelope(pak.EnvelopeQuery{Inner: inner, Items: freshSweepItems(b, rs)},
				pak.WithParallelism(1))
			if err != nil || out.Result.Envelope.Visited != 6 {
				b.Fatalf("sweep: %v (%+v)", err, out.Result.Envelope)
			}
		}
	})
}

// BenchmarkEnvelopeStructureSharing isolates the memo-seeding half of
// the sweep economics from the engine cache: every iteration builds all
// engines fresh (nothing crosses iterations), and the only variable is
// whether each assignment's engine is independent (New) or seeded from
// its predecessor (NewEngineSeeded). The assignments of one sweep
// differ only in adversary weights, so the seeded chain pays the
// structural scans — where actions are performed, where the fact holds
// — once for the whole sweep instead of once per assignment; the
// per-op gap is that saved re-scanning. Serial evaluation keeps the
// comparison clean of scheduling noise.
func BenchmarkEnvelopeStructureSharing(b *testing.B) {
	const n = 4
	// loss=0 is deliberately absent: a zero-weight branch is pruned from
	// the unfold, so that assignment has a different shape and cannot
	// share (the chain would just skip it; the bench wants full sharing).
	losses := []string{"1/10", "1/5", "3/10", "2/5", "1/2"}
	systems := make([]*pak.System, len(losses))
	for i, l := range losses {
		sys, err := pak.NFiringSquadSystem(n, pak.MustRat(l), false)
		if err != nil {
			b.Fatal(err)
		}
		systems[i] = sys
	}
	// The run-based reading of the squad constraint ("the run is one
	// where everyone eventually fires together") prices each Holds call
	// at a scan of the run, so the fact-extension sets the chain shares
	// carry real weight next to the per-assignment measure arithmetic.
	inner := pak.ConstraintQuery{Fact: pak.Sometime(pak.AllFire(n)), Agent: "General", Action: "fire"}

	run := func(b *testing.B, engines func() []*pak.Engine) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			es := engines()
			items := make([]pak.EnvelopeItem, len(es))
			for j, e := range es {
				items[j] = pak.EnvelopeItem{Assignment: "loss=" + losses[j], Engine: e}
			}
			out, err := pak.EvalEnvelope(pak.EnvelopeQuery{Inner: inner, Items: items}, pak.WithParallelism(1))
			if err != nil || out.Result.Envelope.Visited != len(losses) {
				b.Fatalf("sweep: %v (%+v)", err, out.Result.Envelope)
			}
			// The sweep also gates Theorem 4.2 per assignment: the
			// Definition 4.1 scan reads the fact-extension sets at every
			// local state — the heaviest table the chain shares.
			for _, e := range es {
				if _, err := e.LocalStateIndependence(inner.Fact, "General", "fire"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("independent-engines", func(b *testing.B) {
		run(b, func() []*pak.Engine {
			es := make([]*pak.Engine, len(systems))
			for j, sys := range systems {
				es[j] = pak.NewEngine(sys)
			}
			return es
		})
	})

	b.Run("seeded-chain", func(b *testing.B) {
		run(b, func() []*pak.Engine {
			es := make([]*pak.Engine, len(systems))
			var prev *pak.Engine
			for j, sys := range systems {
				e, shared := pak.NewEngineSeeded(sys, prev)
				if prev != nil && !shared {
					b.Fatal("loss neighbours refused to share; the benchmark's premise is broken")
				}
				es[j], prev = e, e
			}
			return es
		})
	})
}

// BenchmarkIndependenceIncremental prices the Definition 4.1 scan under
// the occurrence-index rewrite on a deep random system (hundreds of
// local states). "cold" pays everything — the performance index, the
// fact-extension scans, the per-local fold; "seeded-neighbour" starts
// from a shape-equal neighbour's warm structural tables, as each
// assignment of a sweep does, leaving only the per-local measure
// checks. The gap is the work structure sharing removes from every
// sweep assignment after the first.
func BenchmarkIndependenceIncremental(b *testing.B) {
	sys, err := randsys.Generate(randsys.Config{
		Agents: 2, Depth: 6, MaxBranch: 3, MaxInitial: 2,
		ObsAlphabet: 64, ActionTime: 2, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	agent := sys.Agents()[0]
	fact := pak.Does(agent, randsys.DesignatedAction)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := pak.NewEngine(sys)
			if _, err := e.LocalStateIndependence(fact, agent, randsys.DesignatedAction); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("seeded-neighbour", func(b *testing.B) {
		warm := pak.NewEngine(sys)
		if _, err := warm.LocalStateIndependence(fact, agent, randsys.DesignatedAction); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, shared := pak.NewEngineSeeded(sys, warm)
			if !shared {
				b.Fatal("identical systems refused to share")
			}
			if _, err := e.LocalStateIndependence(fact, agent, randsys.DesignatedAction); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnvelopeSampledPrune compares the exhaustive envelope sweep
// against the sampled-first sweep over the same space (the
// BenchmarkEnvelopeSharedCache workload on cold engines, where exact
// work dominates): the coarse seeded pass estimates every assignment,
// then exact evaluation runs only where the confidence interval says
// the envelope could still move. The "pruned" metric counts exact
// evaluations skipped per op — the work the approximate tier saves,
// bought at a 1−N·δ (not certain) correctness guarantee. On this small
// comparator workload (chosen to match BenchmarkEnvelopeSharedCache)
// the sampling pass costs more than the exact folds it skips; the
// pruned/op metric is the point — each skip is one full unfold+fold
// avoided, and that cost grows exponentially in system size while the
// sampling pass grows only with the run length.
func BenchmarkEnvelopeSampledPrune(b *testing.B) {
	const space = "sweep(nsquad,n=3,loss=0..1/2/1/10)"
	inner := pak.ConstraintQuery{Fact: pak.AllFire(3), Agent: "General", Action: "fire"}
	rs, err := pak.ResolveSweep(space)
	if err != nil {
		b.Fatal(err)
	}

	// Fresh engines per iteration: pruning saves unfold + exact fold
	// work, which resident engines would otherwise hide.
	items := func() []pak.EnvelopeItem { return freshSweepItems(b, rs) }

	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := pak.EvalEnvelope(pak.EnvelopeQuery{Inner: inner, Items: items()})
			if err != nil || out.Result.Envelope.Visited != 6 {
				b.Fatalf("sweep: %v (%+v)", err, out.Result.Envelope)
			}
		}
	})

	b.Run("sampled-first", func(b *testing.B) {
		spec := pak.ApproxSpec{Samples: 2400, Seed: 21}
		pruned := 0
		for i := 0; i < b.N; i++ {
			out, err := pak.EvalEnvelopeSampled(pak.EnvelopeQuery{Inner: inner, Items: items()}, spec)
			if err != nil || out.Err != nil {
				b.Fatalf("sampled sweep: %v / %v", err, out.Err)
			}
			if len(out.Pruned) == 0 {
				b.Fatal("sampled sweep pruned nothing; the benchmark's premise is broken")
			}
			pruned += len(out.Pruned)
		}
		b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
	})
}

// BenchmarkMeasureKernel pins the exact-arithmetic measure kernel
// against the per-run big.Rat reference fold, on both kernel tiers
// (shared denominator in uint64 vs big.Int) and on both hot shapes
// (plain Measure and the fused conditional). The kernel must hold a
// ≥3x ns/op and ≥5x allocs/op advantage on the fold benchmarks — the
// PR's acceptance gate, re-recorded in BENCHMARKS.md.
func BenchmarkMeasureKernel(b *testing.B) {
	// uint64 tier: a deep random system with small edge denominators.
	cfg := randsys.Default(7)
	cfg.Depth = 6
	cfg.ActionTime = 3
	small, err := randsys.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}

	// big.Int tier: four levels of branching with distinct ~2³² prime
	// denominators make the shared denominator ≈ 2¹²⁸, overflowing the
	// word tier (the overflow proof in internal/pps/measure.go gates on
	// D alone).
	primes := []int64{4294967291, 4294967279, 4294967231, 4294967197}
	bld := pps.NewBuilder("i")
	level := []pps.NodeID{bld.Init(pak.Rat(1, 1), "e", "g0")}
	serial := 0
	for depth, p := range primes {
		var next []pps.NodeID
		for _, u := range level {
			rest := p
			for k := 0; k < 4; k++ {
				serial++
				pr := pak.Rat(1, p)
				if k == 3 {
					pr = pak.Rat(rest, p)
				} else {
					rest--
				}
				next = append(next, bld.Child(u, pps.Step{
					Pr: pr, Acts: []string{"a"}, Env: "e",
					Locals: []string{fmt.Sprintf("g%d-%d", depth+1, serial)},
				}))
			}
		}
		level = next
	}
	big, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}

	// naiveCond replicates the pre-kernel conditional: materialize the
	// intersection, fold both measures per run, divide.
	naiveCond := func(sys *pak.System, a, ev *runset.Set) *bigmath.Rat {
		mb := sys.MeasureNaive(ev)
		return new(bigmath.Rat).Quo(sys.MeasureNaive(a.Intersect(ev)), mb)
	}

	event := func(sys *pak.System, seed uint64) *runset.Set {
		ev := sys.NewSet()
		x := seed
		for r := 0; r < sys.NumRuns(); r++ {
			x = x*6364136223846793005 + 1442695040888963407
			if x&1 == 1 {
				ev.Add(r)
			}
		}
		return ev
	}

	for _, tier := range []struct {
		name string
		sys  *pak.System
	}{{"int64", small}, {"big", big}} {
		a, c := event(tier.sys, 3), event(tier.sys, 99)
		want := tier.sys.MeasureNaive(a).RatString()
		b.Run(tier.name+"/measure/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tier.sys.Measure(a).RatString() != want {
					b.Fatal("kernel ≠ naive")
				}
			}
		})
		b.Run(tier.name+"/measure/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tier.sys.MeasureNaive(a).RatString() != want {
					b.Fatal("naive drifted")
				}
			}
		})
		wantCond := naiveCond(tier.sys, a, c).RatString()
		b.Run(tier.name+"/cond/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, ok := tier.sys.Cond(a, c)
				if !ok || got.RatString() != wantCond {
					b.Fatal("kernel cond ≠ naive")
				}
			}
		})
		b.Run(tier.name+"/cond/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if naiveCond(tier.sys, a, c).RatString() != wantCond {
					b.Fatal("naive cond drifted")
				}
			}
		})
	}
}

// beliefFloodEngine builds nsquad(4) and warms it the way a server is
// warm before a belief flood: the plain all-fire constraint,
// expectation and threshold, and believes facts at levels 1/3 and 2/3.
// What stays cold is exactly what a fresh level costs: the believes
// fact's extensions and the beliefs about it.
func beliefFloodEngine(tb testing.TB) *pak.Engine {
	tb.Helper()
	sys, err := pak.BuildScenario("nsquad(4)")
	if err != nil {
		tb.Fatal(err)
	}
	e := pak.NewEngine(sys)
	fire := pak.AllFire(4)
	for _, q := range []pak.Query{
		pak.ConstraintQuery{Fact: fire, Agent: "General", Action: "fire"},
		pak.ExpectationQuery{Fact: fire, Agent: "General", Action: "fire"},
		pak.ThresholdQuery{Fact: fire, Agent: "General", Action: "fire", P: pak.Rat(9, 10)},
		pak.ConstraintQuery{Fact: pak.Believes("General", pak.Rat(1, 3), fire), Agent: "General", Action: "fire"},
		pak.ExpectationQuery{Fact: pak.Believes("General", pak.Rat(2, 3), fire), Agent: "General", Action: "fire"},
	} {
		if _, err := pak.Eval(e, q); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// beliefFloodQuery is the i-th of n flood queries: B_General^p(all fire)
// at the fresh level p = (i+1)/(n+2), as a constraint for even i and an
// expectation for odd i.
func beliefFloodQuery(i, n int) pak.Query {
	f := pak.Believes("General", pak.Rat(int64(i+1), int64(n+2)), pak.AllFire(4))
	if i%2 == 0 {
		return pak.ConstraintQuery{Fact: f, Agent: "General", Action: "fire"}
	}
	return pak.ExpectationQuery{Fact: f, Agent: "General", Action: "fire"}
}

// BenchmarkBeliefFlood prices a believes fact at a level the engine has
// never seen, on a warm nsquad(4) engine: every op is a memo insert and
// an epistemic scan, the query-layer cost of pakdbench's belief-flood
// workload. The engine binds the fact's believes node to its beliefs
// memo, so β_General(all fire) is computed once per acting local state
// and every run of the scan is a lookup.
func BenchmarkBeliefFlood(b *testing.B) {
	e := beliefFloodEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pak.Eval(e, beliefFloodQuery(i, b.N)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBeliefFloodAllocs gates BenchmarkBeliefFlood's allocation count,
// which is exact where its wall time is not. The bound engine measured
// 313 allocs per fresh-level query on linux/amd64 with Go 1.24 (324
// under -race); rescanning occ(ℓ) at every run, as the self-contained
// epistemic operators do, cost 5,279. The ceiling leaves a quarter of
// headroom.
func TestBeliefFloodAllocs(t *testing.T) {
	const runs = 40
	e := beliefFloodEngine(t)
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := pak.Eval(e, beliefFloodQuery(i, runs+1)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 400 {
		t.Errorf("a fresh-level believes query allocates %.0f objects, want ≤ 400", avg)
	}
}
