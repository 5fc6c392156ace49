package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pak/internal/core"
	"pak/internal/pps"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/registry"
	"pak/internal/service"
	"pak/internal/store"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"eval-warm", "sweep-cold", "belief-flood", "store-replay"}

// workload is one traffic mix: its seeded request sequence, the set-up
// that puts a fresh server into the state the window measures, and the
// checks that make only verified answers count.
type workload struct {
	name string
	// at returns the i-th request of the seeded sequence (nil past its
	// end).
	at func(i int) *request
	// setup starts a fresh server in the measured state; timed as
	// setup_s.
	setup func(round int) (*server, error)
	// prime, when set, runs untimed after the last set-up (proving the
	// reply bytes of repeated bodies).
	prime func(s *server) error
	check func(r *request, status int, body []byte) error
	keep  func(r *request) bool
	// verify checks the retained sample against library references
	// after the window and returns how many failed.
	verify func(kept []outcome) (failed int, err error)
	// shape asserts the workload's defining property over the window.
	shape func(w *window) error
	// keys are the engine-cache keys whose memo tables the window grows.
	keys func() []string
	// replayState returns a fresh in-process replayer prepared as setup
	// prepares the server (trace.go).
	replayState func() (*replayer, error)
}

// window is what the timed window observed, handed to shape checks.
type window struct {
	// at and n give the completed requests: the first n of the sequence.
	at            func(i int) *request
	n             int
	before, after statsDoc
	// tier tallies the systems the window's checks unfolded.
	tier tierCount
}

// lazySeq is a one-off request sequence drawn on demand, in index
// order, so the same seed always yields the same i-th request however
// fast the clients consume them.
type lazySeq struct {
	next func(i int) (*request, error)

	mu    sync.Mutex
	items []*request
	err   error
}

func (s *lazySeq) at(i int) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i && s.err == nil {
		var r *request
		if r, s.err = s.next(len(s.items)); s.err == nil {
			s.items = append(s.items, r)
		}
	}
	if i < len(s.items) {
		return s.items[i]
	}
	return nil
}

// drawn returns the requests drawn so far.
func (s *lazySeq) drawn() []*request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items
}

// bench holds a run's fixed parameters.
type bench struct {
	seed    int64
	workdir string
	reg     *registry.Registry
	lib     *refLib
	dur     time.Duration
	stderr  io.Writer
}

func newWorkload(b *bench, name string) (*workload, error) {
	switch name {
	case "eval-warm":
		return evalWarm(b)
	case "sweep-cold":
		return sweepCold(b)
	case "belief-flood":
		return beliefFlood(b)
	case "store-replay":
		return storeReplay(b)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// refLib computes reference answers in-process with the library, on
// engines of its own, outside every timed section.
type refLib struct {
	reg     *registry.Registry
	engines map[string]*core.Engine
}

func (l *refLib) engine(spec string) (*core.Engine, error) {
	if e, ok := l.engines[spec]; ok {
		return e, nil
	}
	sys, err := l.reg.Build(spec)
	if err != nil {
		return nil, err
	}
	e := core.New(sys)
	l.engines[spec] = e
	return e, nil
}

// sysBatch is one system of an eval request with its query batch.
type sysBatch struct {
	spec    string
	queries string
}

// evalBody is a /v1/eval request: in the per-system "requests" form,
// or, when shared, as "systems" plus one top-level batch that every
// system's queries must then equal (the server parses it once).
type evalBody struct {
	systems []sysBatch
	approx  bool
	shared  bool
}

// approxWire is the fixed-seed approximate-tier spec eval-warm streams
// carry, and approxSpec its library form. The budget is small so the
// sampling stays a minor share of the workload, whose subject is the
// service path around resident engines.
const approxWire = `{"samples":32,"delta":"1/100","seed":7}`

var approxSpec = query.ApproxSpec{Samples: 32, Delta: ratutil.R(1, 100), Seed: 7}

func (b evalBody) json() []byte {
	parts := make([]string, len(b.systems))
	for i, s := range b.systems {
		parts[i] = fmt.Sprintf(`{"system":%q,"queries":%s}`, s.spec, s.queries)
		if b.shared {
			parts[i] = fmt.Sprintf("%q", s.spec)
		}
	}
	doc := `{"requests":[` + strings.Join(parts, ",") + `]`
	if b.shared {
		doc = `{"systems":[` + strings.Join(parts, ",") + `],"queries":` + b.systems[0].queries
	}
	if b.approx {
		doc += `,"approx":` + approxWire
	}
	return []byte(doc + "}")
}

// items compiles the body against library engines.
func (l *refLib) items(b evalBody) ([]query.MultiItem, error) {
	items := make([]query.MultiItem, len(b.systems))
	for i, s := range b.systems {
		e, err := l.engine(s.spec)
		if err != nil {
			return nil, err
		}
		qs, err := query.ParseBatch([]byte(s.queries))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.spec, err)
		}
		items[i] = query.MultiItem{Engine: e, Queries: qs}
	}
	return items, nil
}

// reference computes the slots a server must answer for the body: the
// buffered result per slot, or, for an approx stream, every stage
// frame.
func (l *refLib) reference(b evalBody) (slots, error) {
	items, err := l.items(b)
	if err != nil {
		return nil, err
	}
	want := make(slots)
	opts := []query.Option{query.WithParallelism(1)}
	if b.approx {
		opts = append(opts, query.WithApprox(approxSpec))
	}
	for f := range query.EvalMultiStream(items, opts...) {
		if f.Terminal() {
			if f.Status != query.StreamComplete {
				return nil, fmt.Errorf("reference ended %s", f.Status)
			}
			continue
		}
		if f.Result.Err != nil {
			return nil, fmt.Errorf("reference slot [%d][%d]: %w", f.System, f.Index, f.Result.Err)
		}
		want[slotKey{f.System, f.Index, string(f.Stage)}] = docBytes(f.Result)
	}
	return want, nil
}

// sendAll posts each body once and requires 200s.
func sendAll(s *server, bodies []*request) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, r := range bodies {
		status, body, _, err := send(client, s.url, r)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %.200s", r.path, status, body)
		}
	}
	return nil
}

// repeatedWorkload wires a fixed set of distinct requests (groups) into
// a block-shuffled sequence whose replies are verified through a
// proven-bytes cache. It returns each group's reference slots too.
func repeatedWorkload(b *bench, name string, groups []*request, bodies []evalBody) (*workload, []slots, error) {
	want := make([]slots, len(groups))
	for g := range groups {
		ref, err := b.lib.reference(bodies[g])
		if err != nil {
			return nil, nil, fmt.Errorf("%s reference %d: %w", name, g, err)
		}
		want[g] = ref
		groups[g].group = g
		groups[g].item = bodies[g]
	}
	cache := newVerifiedCache(want)
	w := &workload{
		name: name,
		at: func(i int) *request {
			return groups[blockOrder(b.seed, i, len(groups))]
		},
		prime: func(s *server) error {
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for g, r := range groups {
				status, body, _, err := send(client, s.url, r)
				if err != nil {
					return err
				}
				if err := cache.prove(g, status, body, r.stream); err != nil {
					return fmt.Errorf("%s group %d: %w", name, g, err)
				}
			}
			return nil
		},
		check: func(r *request, status int, body []byte) error {
			return cache.check(r.group, status, body, r.stream)
		},
	}
	w.keys = func() []string {
		seen := map[string]bool{}
		var keys []string
		for _, body := range bodies {
			for _, s := range body.systems {
				k, err := b.reg.Canonical(s.spec)
				if err == nil && !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		return keys
	}
	return w, want, nil
}

func evalReq(body evalBody, stream bool) *request {
	path := "/v1/eval"
	if stream {
		path = "/v1/eval/stream"
	}
	return &request{path: path, body: body.json(), stream: stream, group: -1}
}

// evalWarm: repeated standard batches over resident engines.
func evalWarm(b *bench) (*workload, error) {
	// Each system's batch thresholds at one fixed level: the seed
	// changes only the order of the requests.
	const level = "9/10"
	squad := func(n int) sysBatch {
		return sysBatch{fmt.Sprintf("nsquad(%d)", n), squadBatch("General", "s1", allFire(n), level)}
	}
	fsquad := sysBatch{"fsquad", squadBatch("Alice", "Bob", factAnd(factDoes("Alice", "fire"), factDoes("Bob", "fire")), level)}
	configs := [][]sysBatch{
		{squad(2)}, {squad(3)}, {squad(4)}, {fsquad},
		{squad(2), squad(3), fsquad},
	}
	// Per configuration: four buffered, three streamed and one streamed
	// approx-first request, so half go to /stream and one streamed
	// request in four carries the approx spec.
	var groups []*request
	var bodies []evalBody
	for _, sys := range configs {
		exact := evalBody{systems: sys}
		approx := evalBody{systems: sys, approx: true}
		for _, v := range []struct {
			body   evalBody
			stream bool
			n      int
		}{{exact, false, 4}, {exact, true, 3}, {approx, true, 1}} {
			for k := 0; k < v.n; k++ {
				groups = append(groups, evalReq(v.body, v.stream))
				bodies = append(bodies, v.body)
			}
		}
	}
	w, _, err := repeatedWorkload(b, "eval-warm", groups, bodies)
	if err != nil {
		return nil, err
	}
	w.setup = func(int) (*server, error) {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		if err := sendAll(s, groups); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	w.replayState = func() (*replayer, error) {
		rp := newReplayer(b, nil)
		_, _, err := rp.replay(groups, 1, pass{})
		return rp, err
	}
	w.shape = func(win *window) error {
		hits := win.after.EngineCache.Hits - win.before.EngineCache.Hits
		misses := win.after.EngineCache.Misses - win.before.EngineCache.Misses
		if misses != 0 || hits == 0 {
			return fmt.Errorf("engine-cache hit ratio below 1 (%d hits, %d misses)", hits, misses)
		}
		return nil
	}
	return w, nil
}

// storeReplay: stored answers replayed by a server with no engines.
func storeReplay(b *bench) (*workload, error) {
	// Many small slots per request, and batches shared by several
	// systems (parsed once, looked up once per system), so the
	// per-slot store read path outweighs the per-request service path.
	// The systems are fixed: the seed changes only the order of the
	// requests.
	levels := levelsOver(20, 4, 19)
	squadQs := squadBatch("General", "s1", allFire(4), levels...)
	obs := localContains("a1", "-o0")
	randomQs := []string{
		queryDoc("constraint", "a0", "alpha*", obs, ""),
		queryDoc("expectation", "a0", "alpha*", obs, ""),
	}
	for _, p := range levels {
		randomQs = append(randomQs, queryDoc("threshold", "a0", "alpha*", obs, p))
	}
	squads := func(specs ...string) []sysBatch {
		var out []sysBatch
		for _, spec := range specs {
			out = append(out, sysBatch{spec, squadQs})
		}
		return out
	}
	randoms := func(seeds ...int) []sysBatch {
		var out []sysBatch
		for _, seed := range seeds {
			out = append(out, sysBatch{fmt.Sprintf("random(depth=10,seed=%d)", seed), batch(randomQs...)})
		}
		return out
	}
	const r1, r2, r3 = 101, 402, 703
	configs := []evalBody{
		{systems: squads("nsquad(4)", "nsquad(5)", "nsquad(n=4,improved=true)", "nsquad(n=4,loss=1/5)"), shared: true},
		{systems: randoms(r1, r2, r3), shared: true},
		{systems: append(squads("nsquad(4)"), randoms(r1)...)},
	}
	var groups []*request
	var bodies []evalBody
	var populate []*request
	for _, body := range configs {
		r := evalReq(body, false)
		r.item = body
		populate = append(populate, r)
		for _, stream := range []bool{false, true} {
			groups = append(groups, evalReq(body, stream))
			bodies = append(bodies, body)
		}
	}
	// groups[2k] is the buffered request of configs[k], the body
	// populate[k] files.
	w, want, err := repeatedWorkload(b, "store-replay", groups, bodies)
	if err != nil {
		return nil, err
	}
	w.setup = func(round int) (*server, error) {
		dir := filepath.Join(b.workdir, fmt.Sprintf("store-%d", round))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		disk, err := store.OpenDisk(dir)
		if err != nil {
			return nil, err
		}
		writer, err := startServer(service.WithResultStore(disk))
		if err != nil {
			return nil, err
		}
		err = sendAll(writer, populate)
		writer.close()
		if err != nil {
			return nil, err
		}
		return startServer(service.WithResultStore(disk))
	}
	w.replayState = func() (*replayer, error) {
		// The write path the set-up pays over HTTP, timed per Put: the
		// reference answers filed into a fresh store.
		dir := filepath.Join(b.workdir, "replay-store")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		disk, err := store.OpenDisk(dir)
		if err != nil {
			return nil, err
		}
		rp := newReplayer(b, disk)
		var puts []float64
		for k, r := range populate {
			body := r.item.(evalBody)
			for i, sys := range body.systems {
				key, err := b.reg.Canonical(sys.spec)
				if err != nil {
					return nil, err
				}
				qs, err := query.ParseBatch([]byte(sys.queries))
				if err != nil {
					return nil, err
				}
				for j, q := range qs {
					raw, err := query.MarshalCanonical(q)
					if err != nil {
						return nil, err
					}
					t := time.Now()
					if err := disk.Put(store.Entry{System: key, Query: raw, Value: want[2*k][slotKey{i, j, ""}]}); err != nil {
						return nil, err
					}
					puts = append(puts, ms(time.Since(t)))
				}
			}
		}
		rp.putMedian, rp.puts = quantile(puts, 0.5), len(puts)
		return rp, nil
	}
	w.shape = func(win *window) error {
		misses := win.after.EngineCache.Misses - win.before.EngineCache.Misses
		if misses != 0 {
			return fmt.Errorf("%d engine builds in the replay window", misses)
		}
		if win.after.Store == nil || win.before.Store == nil {
			return fmt.Errorf("no store stats")
		}
		hits := win.after.Store.Hits - win.before.Store.Hits
		miss := win.after.Store.Misses - win.before.Store.Misses + win.after.Store.Corrupt - win.before.Store.Corrupt
		if miss != 0 || hits == 0 {
			return fmt.Errorf("store hit ratio below 1 (%d hits, %d misses or corrupt)", hits, miss)
		}
		return nil
	}
	return w, nil
}

// sweepItem is one sweep-cold request: a two-point loss grid over one
// squad size and protocol variant.
type sweepItem struct {
	n        int
	improved bool
	losses   []*big.Rat
	specs    []string // canonical assignment specs, space order
	space    string
	query    string
	req      *request
}

// sweepLossMaxDen bounds the loss denominators of sweep-cold so that
// every system keeps the measure kernel's uint64 tier: the shared
// denominator of nsquad(4) at loss k/127 takes 64 bits, at k/128
// already 65 (TestSweepLossTier pins the boundary). Unrestricted grids
// push nsquad(4) into the big.Int fallback.
const (
	sweepLossMinDen = 11
	sweepLossMaxDen = 127
)

func squadSpec(n int, loss *big.Rat, improved bool) string {
	return fmt.Sprintf("nsquad(n=%d,loss=%s,improved=%t)", n, loss.RatString(), improved)
}

// sweepGrid is the two-point sweep of nsquad(n) over loss num/den and
// (num+1)/den.
func sweepGrid(n int, improved bool, num, den int64, stream bool) *sweepItem {
	lo, hi := big.NewRat(num, den), big.NewRat(num+1, den)
	it := &sweepItem{n: n, improved: improved, losses: []*big.Rat{lo, hi},
		specs: []string{squadSpec(n, lo, improved), squadSpec(n, hi, improved)},
		query: queryDoc("constraint", "General", "fire", allFire(n), "")}
	it.space = fmt.Sprintf("sweep(nsquad,n=%d,loss=%d/%d..%d/%d/1/%d,improved=%t)", n, num, den, num+1, den, den, improved)
	path := "/v1/envelope"
	if stream {
		path += "/stream"
	}
	it.req = &request{path: path, body: []byte(fmt.Sprintf(`{"space":%q,"query":%s}`, it.space, it.query)),
		stream: stream, group: -1, item: it}
	return it
}

// sweepGrids is the fixed list of loss grids sweep-cold draws from: the
// pairs num/den, (num+1)/den with num odd and both fractions in lowest
// terms, for den in [sweepLossMinDen, sweepLossMaxDen], in a fixed
// shuffled order that spreads the denominators evenly along the list.
// No loss occurs in two grids.
var sweepGrids = func() [][2]int64 {
	var grids [][2]int64
	for den := int64(sweepLossMinDen); den <= sweepLossMaxDen; den++ {
		for num := int64(1); num+1 < den; num += 2 {
			if gcd(num, den) == 1 && gcd(num+1, den) == 1 {
				grids = append(grids, [2]int64{num, den})
			}
		}
	}
	out := make([][2]int64, len(grids))
	for i, k := range newSplitmix(0, 2).perm(len(grids)) {
		out[i] = grids[k]
	}
	return out
}()

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// sweepSequence draws the run's sweeps on demand. Block j of twelve
// requests holds every (n, variant, endpoint) combination once, on grids
// 2j (buffered) and 2j+1 (streamed) of sweepGrids, so no canonical
// assignment spec repeats; the seed changes only the order within each
// block. The sequence ends with the grid list.
func sweepSequence(seed int64) *lazySeq {
	return &lazySeq{next: func(i int) (*request, error) {
		c := blockOrder(seed, i, 12)
		n, improved, stream := 2+c/4, c%4/2 == 1, c%2 == 1
		k := 2*(i/12) + c%2
		if k >= len(sweepGrids) {
			return nil, fmt.Errorf("sweep-cold: loss grids exhausted after %d requests", i)
		}
		g := sweepGrids[k]
		it := sweepGrid(n, improved, g[0], g[1], stream)
		it.req.idx = i
		return it.req, nil
	}}
}

func sweepCold(b *bench) (*workload, error) {
	// Set-up sweeps: one per squad size on a grid of sevenths, which no
	// window grid uses (their denominators are at least 11), so the
	// window never asks for an engine the set-up warmed.
	var warm []*request
	for n := 2; n <= 4; n++ {
		warm = append(warm, sweepGrid(n, n == 3, int64(n), 7, n == 4).req)
	}
	seq := sweepSequence(b.seed)
	w := &workload{name: "sweep-cold", at: seq.at}
	w.setup = func(int) (*server, error) {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		if err := sendAll(s, warm); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	w.replayState = func() (*replayer, error) { return newReplayer(b, nil), nil }
	w.check = func(r *request, status int, body []byte) error {
		it := r.item.(*sweepItem)
		rep, err := parseEnvelope(status, body, r.stream, len(it.specs))
		if err != nil {
			return err
		}
		for i, spec := range it.specs {
			if rep.specs[i] != spec {
				return fmt.Errorf("assignment %d spec %q, want %q", i, rep.specs[i], spec)
			}
			v, msg := resultValue(rep.results[i])
			if msg != "" || v == "" {
				return fmt.Errorf("assignment %d: no value (%s)", i, msg)
			}
			if !it.improved {
				if want := closedForm(it.n, it.losses[i]).RatString(); v != want {
					return fmt.Errorf("assignment %d: µ = %s, closed form (1-ℓ²)^(n-1) = %s", i, v, want)
				}
			}
		}
		return nil
	}
	w.keep = func(r *request) bool { return sampled(b.seed, r.idx, 10) }
	var tier tierCount
	w.verify = func(kept []outcome) (int, error) {
		failed := 0
		for _, o := range kept {
			it := o.req.item.(*sweepItem)
			want, err := b.envelopeReference(it, &tier)
			if err != nil {
				return 0, err
			}
			got, err := parseEnvelope(o.status, o.body, o.req.stream, len(it.specs))
			if err == nil {
				err = compareEnvelope(got, want)
			}
			if err != nil {
				fmt.Fprintf(b.stderr, "sweep-cold request %d: %v\n", o.idx, err)
				failed++
			}
		}
		return failed, nil
	}
	w.shape = func(win *window) error {
		hits := win.after.EngineCache.Hits - win.before.EngineCache.Hits
		misses := win.after.EngineCache.Misses - win.before.EngineCache.Misses
		assignments := uint64(0)
		seen := map[string]bool{}
		for i := 0; i < win.n; i++ {
			for _, spec := range win.at(i).item.(*sweepItem).specs {
				if seen[spec] {
					return fmt.Errorf("canonical spec %s repeats", spec)
				}
				seen[spec] = true
				assignments++
			}
		}
		if hits != 0 || misses != assignments {
			return fmt.Errorf("%d assignments gave %d misses and %d hits; every one must miss", assignments, misses, hits)
		}
		win.tier = tier
		if tier.big != 0 {
			return fmt.Errorf("%d of %d sampled systems left the uint64 tier", tier.big, tier.total)
		}
		return nil
	}
	w.keys = func() []string {
		var keys []string
		for _, r := range seq.drawn() {
			keys = append(keys, r.item.(*sweepItem).specs...)
		}
		return keys
	}
	return w, nil
}

// spreadSample picks up to k of the retained outcomes, one from each of
// k equal segments of the n completed requests, chosen by the seed, so
// the reference checks cover the whole window.
func spreadSample(kept []outcome, n, k int, seed int64) []outcome {
	sort.Slice(kept, func(i, j int) bool { return kept[i].idx < kept[j].idx })
	rng := newSplitmix(seed, 7)
	var out []outcome
	for seg := 0; seg < k; seg++ {
		lo, hi := seg*n/k, (seg+1)*n/k
		a := sort.Search(len(kept), func(i int) bool { return kept[i].idx >= lo })
		b := sort.Search(len(kept), func(i int) bool { return kept[i].idx >= hi })
		if a < b {
			out = append(out, kept[a+rng.intn(b-a)])
		}
	}
	return out
}

// envelopeReference evaluates the sweep in-process: registry resolve,
// a fresh library engine per assignment, and the query layer's
// envelope fold.
func (b *bench) envelopeReference(it *sweepItem, tier *tierCount) (envelopeReply, error) {
	var rep envelopeReply
	rs, err := b.reg.ResolveSpace(it.space)
	if err != nil {
		return rep, err
	}
	inner, err := query.Parse([]byte(it.query))
	if err != nil {
		return rep, err
	}
	var items []query.EnvelopeItem
	for _, inst := range rs.Instances() {
		sys, err := b.reg.Build(inst.Canonical)
		if err != nil {
			return rep, err
		}
		tier.add(sys)
		items = append(items, query.EnvelopeItem{Assignment: inst.Assignment.String(), Spec: inst.Canonical, Engine: core.New(sys)})
		rep.specs = append(rep.specs, inst.Canonical)
	}
	out, err := query.EvalEnvelope(query.EnvelopeQuery{Inner: inner, Items: items}, query.WithParallelism(1))
	if err != nil {
		return rep, err
	}
	for _, s := range out.Slots {
		rep.results = append(rep.results, docBytes(s))
	}
	rep.envelope, err = json.Marshal(query.RangeDocOf(*out.Result.Envelope))
	return rep, err
}

// tierCount tallies systems by the measure kernel's arithmetic tier:
// a system whose shared denominator (the lcm of its run-probability
// denominators) exceeds 64 bits runs in the big.Int fallback.
type tierCount struct{ big, total int }

func (t *tierCount) add(sys *pps.System) {
	t.total++
	if sharedDenominatorBits(sys) > 64 {
		t.big++
	}
}

func (t *tierCount) share() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.big) / float64(t.total)
}

func sharedDenominatorBits(sys *pps.System) int {
	lcm := big.NewInt(1)
	g := new(big.Int)
	for r := 0; r < sys.NumRuns(); r++ {
		d := sys.RunProbShared(pps.RunID(r)).Denom()
		g.GCD(nil, nil, lcm, d)
		lcm.Mul(lcm, new(big.Int).Quo(d, g))
	}
	return lcm.BitLen()
}

// floodItem is one belief-flood request: belief facts at fresh levels.
type floodItem struct {
	levels []*big.Rat
	body   evalBody
}

const floodSpec = "nsquad(4)"

// floodBlock is the block size of the belief-flood sequence: four
// (kind, endpoint) pairings, four times each.
const floodBlock = 16

// floodLevels is the fixed list of belief levels belief-flood draws
// from, extended on demand: distinct fractions in lowest terms whose
// denominators are at least 1000, so set-up's 1/3 and 2/3 never recur.
type floodLevels struct {
	rng    *splitmix
	used   map[string]bool
	levels []*big.Rat
}

func (l *floodLevels) at(k int) *big.Rat {
	for len(l.levels) <= k {
		den := int64(1000 + l.rng.intn(99000))
		p := big.NewRat(int64(1+l.rng.intn(int(den-1))), den)
		if p.Denom().Int64() < 1000 || l.used[p.RatString()] {
			continue
		}
		l.used[p.RatString()] = true
		l.levels = append(l.levels, p)
	}
	return l.levels[k]
}

// floodSequence draws the run's requests on demand. Block j holds levels
// floodBlock*j onwards of floodLevels, one per request; a request's
// position in the block sets its kind (constraint or expectation) and
// endpoint, so each pairing is a quarter. The seed changes only the
// order within each block.
func floodSequence(seed int64) *lazySeq {
	levels := &floodLevels{rng: newSplitmix(0, 3), used: map[string]bool{}}
	fire := allFire(4)
	return &lazySeq{next: func(i int) (*request, error) {
		pos := blockOrder(seed, i, floodBlock)
		kind := "constraint"
		if pos%2 == 1 {
			kind = "expectation"
		}
		p := levels.at(floodBlock*(i/floodBlock) + pos)
		it := &floodItem{levels: []*big.Rat{p}}
		it.body = evalBody{systems: []sysBatch{{floodSpec, batch(queryDoc(kind, "General", "fire", believes("General", p, fire), ""))}}}
		r := evalReq(it.body, pos/2%2 == 0)
		r.idx, r.item = i, it
		return r, nil
	}}
}

func beliefFlood(b *bench) (*workload, error) {
	fire := allFire(4)
	warmBody := evalBody{systems: []sysBatch{{floodSpec, batch(
		queryDoc("constraint", "General", "fire", fire, ""),
		queryDoc("expectation", "General", "fire", fire, ""),
		queryDoc("threshold", "General", "fire", fire, "9/10"),
		// Levels with denominator 3 never occur in the window's draws.
		queryDoc("constraint", "General", "fire", believes("General", big.NewRat(1, 3), fire), ""),
		queryDoc("expectation", "General", "fire", believes("General", big.NewRat(2, 3), fire), ""),
	)}}}
	w := &workload{name: "belief-flood", at: floodSequence(b.seed).at}
	w.setup = func(int) (*server, error) {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		if err := sendAll(s, []*request{evalReq(warmBody, false)}); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	w.replayState = func() (*replayer, error) {
		rp := newReplayer(b, nil)
		return rp, rp.replayEval(nil, warmBody)
	}
	w.check = func(r *request, status int, body []byte) error {
		got, err := parseEval(status, body, r.stream)
		if err != nil {
			return err
		}
		it := r.item.(*floodItem)
		for j := range it.levels {
			doc, ok := got[slotKey{0, j, ""}]
			if !ok {
				return fmt.Errorf("slot %d missing", j)
			}
			if v, msg := resultValue(doc); msg != "" || v == "" {
				return fmt.Errorf("slot %d: no value (%s)", j, msg)
			}
		}
		if len(got) != len(it.levels) {
			return fmt.Errorf("%d slots, want %d", len(got), len(it.levels))
		}
		return nil
	}
	w.keep = func(r *request) bool { return sampled(b.seed, r.idx, 20) }
	w.verify = func(kept []outcome) (int, error) {
		// A fresh library engine per run of checks: its memo starts as
		// empty as the server's did.
		lib := &refLib{reg: b.reg, engines: map[string]*core.Engine{}}
		failed := 0
		for _, o := range kept {
			want, err := lib.reference(o.req.item.(*floodItem).body)
			if err != nil {
				return 0, err
			}
			got, err := parseEval(o.status, o.body, o.req.stream)
			if err == nil {
				err = compareSlots(got, want)
			}
			if err != nil {
				fmt.Fprintf(b.stderr, "belief-flood request %d: %v\n", o.idx, err)
				failed++
			}
		}
		return failed, nil
	}
	w.shape = func(win *window) error {
		seen := map[string]bool{}
		for i := 0; i < win.n; i++ {
			for _, p := range win.at(i).item.(*floodItem).levels {
				if seen[p.RatString()] {
					return fmt.Errorf("belief level %s repeats", p.RatString())
				}
				seen[p.RatString()] = true
			}
		}
		return nil
	}
	w.keys = func() []string {
		k, _ := b.reg.Canonical(floodSpec)
		return []string{k}
	}
	return w, nil
}
