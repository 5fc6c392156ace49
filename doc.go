// Package pak is an executable reproduction of "Probably Approximately
// Knowing" (Zamir & Moses, PODC 2020): an exact epistemic-probabilistic
// model checker for finite purely probabilistic systems (pps).
//
// The paper studies the interdependence between the actions an agent
// performs and its subjective probabilistic beliefs, in protocols that
// satisfy probabilistic constraints of the form "condition φ holds with
// probability at least p when action α is performed". Its main theorem
// (Theorem 6.2) is a probabilistic analogue of the Knowledge of
// Preconditions principle: under a local-state independence condition, the
// expected degree of the agent's belief in φ when it performs α equals
// µ(φ@α | α) exactly. The headline corollary (Corollary 7.2) is the PAK
// principle: if the constraint holds with threshold 1−ε², then with
// probability at least 1−ε the agent's belief is at least 1−ε when it acts
// — the agent probably approximately knows φ.
//
// This package is the public facade over the library:
//
//   - systems: build pps trees directly (NewBuilder) or by unfolding a
//     synchronous joint protocol (Unfold, FuncModel) over substrates such
//     as the lossy message network (NewNet);
//   - facts: the combinator language for conditions (Does, LocalIs, And,
//     Not, Sometime, ...) with semantic classifiers (IsPastBased,
//     IsRunBased);
//   - beliefs: NewEngine answers β_i(φ), µ(φ@α|α), expected beliefs,
//     threshold measures, knowledge queries, local-state independence, and
//     machine-checks every theorem in the paper (CheckExpectation,
//     CheckPAK, ...); the engine is concurrency-safe and memoizes shared
//     work (performance indexes, fact extensions, beliefs, independence
//     scans) so overlapping queries get cheaper;
//   - queries: the unified query API reifies every analysis as a value
//     (BeliefQuery, ConstraintQuery, ExpectationQuery, ThresholdQuery,
//     TheoremQuery, IndependenceQuery, TimelineQuery), evaluated through
//     Eval or the parallel EvalBatch (WithParallelism, WithCache) to a
//     uniform QueryResult of exact rationals, verdicts and witness
//     run-sets; EvalMultiBatch/EvalMultiSystems shard batches across
//     several engines through one bounded worker pool;
//     EvalStream/EvalMultiStream are their streaming forms — one
//     QueryFrame per query as its worker finishes, a terminal status
//     frame (complete | deadline | cancelled), and in-flight work
//     drained on context expiry so the finished prefix is never lost
//     (the batch evaluators are consumers of the same stream); query
//     lists serialize to JSON (MarshalQueryBatch, ParseQueryBatch) in
//     the format the CLI tools and the pakd service exchange;
//   - scenarios by name: the registry (Scenarios, BuildScenario) resolves
//     compact specs — "fsquad", "nsquad(5)", "random(seed=42)" — to
//     systems with validated, defaulted parameters; space-valued specs
//     ("sweep(nsquad,loss=0.0..0.5/0.1)", ParseSweepSpec/ResolveSweep)
//     name whole adversary spaces, each assignment resolving to a
//     canonical system spec; the generated SCENARIOS.md catalogs every
//     registered scenario with its sweep example;
//   - envelopes: EvalSweep/EvalEnvelope/EnvelopeStream fold any
//     single-valued query's [min, max] across an adversary space —
//     exact bounds with witness assignments (EnvelopeRange), streamed
//     progressively with the running envelope per frame, partial but
//     sound under deadlines (visited/total labeled), engines shared
//     through the same cache as every other request; MetricQuery sweeps
//     opaque in-process metrics;
//   - the approximate tier: WithApprox(ApproxSpec{...}) answers
//     supported queries (CanApprox: constraint, expectation, threshold,
//     belief-at-local) approx-first — a seeded, deterministic sampled
//     estimate with an exact-rational Hoeffding confidence interval
//     (QueryEstimate, stage StageApprox) streamed strictly before the
//     refined exact result (stage StageExact, carrying the estimate and
//     a ciCovered self-check); Only skips refinement, a deadline
//     mid-refinement leaves the estimate standing as the slot's sound
//     answer, and the same seed and budget produce byte-identical
//     estimates at any parallelism; EvalEnvelopeSampled is the
//     sampled-first sweep — exact evaluation only where an assignment's
//     interval could still attain the envelope, the rest pruned
//     (correct w.p. >= 1 − N·Delta);
//   - the service: ServiceHandler/NewService expose the registry and the
//     query layer over HTTP/JSON (what cmd/pakd serves) — named systems,
//     query-batch documents, cross-system fan-out, an NDJSON streaming
//     endpoint (/v1/eval/stream: one result frame per query the moment
//     it finishes, golden-pinned frame shapes; an "approx" request knob
//     turns any eval approx-first, estimate frames before exact frames,
//     with the sampling model memoized beside the engine), adversary
//     envelopes
//     (/v1/envelope and /v1/envelope/stream: a query's exact [min, max]
//     over a sweep(...) space, witness assignments included) and
//     engine-cache stats (/v1/stats) — hardened for sustained traffic:
//     per-request
//     deadlines with cooperative cancellation (WithServiceRequestTimeout,
//     WithEvalContext; expiry answers 504 carrying every finished result
//     plus per-slot deadline errors, never discarding completed work), a
//     size-bounded LRU engine cache whose eviction is invisible
//     (WithServiceEngineCache — rebuilt engines answer byte-identically,
//     TestEvictionInvisible), and concurrent singleflight cold builds;
//     cmd/pakload + internal/load drive it all under concurrent load
//     with latency/error-taxonomy JSON reports (cold/warm latency split
//     per scenario); see examples/service for the walkthrough (start
//     pakd, POST a batch with curl, read the exact JSON results);
//   - persistent results: WithServiceResultStore (pakd -store-dir)
//     installs a content-addressed store — keys are SHA-256 over the
//     canonical system spec × canonical query document — as a
//     read-through/write-behind tier, so a restarted server answers
//     previously computed slots byte-identically with zero engine
//     rebuilds; only deterministic, complete, exact results are
//     persisted (never error slots, estimates, or slots cut by a
//     deadline), reads are integrity-checked (a corrupt entry is
//     counted and recomputed, never served — StoreErrCorrupt), and
//     OpenDiskStore's writes are crash-safe (temp-then-rename);
//     cmd/pakstore lists, verifies and garbage-collects a store
//     offline; WithServiceClientQuota (pakd -client-quota) caps each
//     client's concurrent in-flight evaluation requests with
//     golden-pinned 429s;
//   - the paper's own systems: Figure1, That (Figure 2 / Theorem 5.2), and
//     the relaxed firing squad FiringSquad of Example 1 with its Section 8
//     improvement;
//   - estimation: NewSampler and NewProtocolSampler provide seeded
//     Monte-Carlo cross-validation with Hoeffding confidence radii;
//   - group epistemics: NewSlice computes Monderer–Samet probabilistic
//     common belief over time slices;
//   - nondeterminism: fixing an adversary per the paper's Section 2 is
//     one envelope item (an assignment label and its engine); ResolveSweep
//     and SweepItems build the items of a sweep(...) space, and
//     EvalEnvelope quantifies any single-valued query over them, an
//     opaque Go metric included through MetricQuery;
//   - serialization: MarshalSystem/UnmarshalSystem and ParseFact for the
//     CLI tools.
//
// All probabilities are exact rationals (math/big.Rat); the paper's
// numbers (0.99, 0.991, 990/991, (p−ε)/(1−ε), ...) are reproduced as
// rational identities, not floating-point approximations. Measure
// arithmetic runs on an exact-arithmetic kernel: each system lazily
// precomputes a shared denominator D (the lcm of its run-probability
// denominators) with scaled integer numerators, so an event's measure
// is a word-at-a-time integer sum over the run bitset with exactly one
// final rational reduction — in machine words when D fits a uint64
// (provably overflow-free, since every event sum is bounded by D),
// falling back to big.Int otherwise — and conditional measures fuse
// both sums into one pass with D cancelling; results are byte-identical
// to the naive per-run fold, which the kernel ≡ naive property tests
// pin. See DESIGN.md
// for the architecture, EXPERIMENTS.md for the paper-vs-measured record,
// and SCENARIOS.md for the scenario catalog.
package pak
