package main

// The traced run. After an ordinary HTTP window, the seeded sequence
// continues in a paired pass: each request goes over HTTP and is then
// replayed in-process through the layers' public functions — registry,
// protocol (Registry.Build), core (through a service.EngineCache and
// NewSeeded chaining that mirror the server), query, encode, store —
// with a span around each call. Spans are kept in memory per replay
// worker and reduced at the end. A layer's self time is its spans'
// time minus the part their child spans cover. The pps kernel and
// epistemic evaluation stay inside query spans; the HTTP service layer
// is the part of each request's HTTP latency that its replay does not
// account for.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pak/internal/core"
	"pak/internal/query"
	"pak/internal/service"
	"pak/internal/store"
)

// span is one timed call at a layer boundary of one request.
type span struct {
	name string
	req  int
	// parent is the parent's index in the same log, -1 for a request
	// root, and -2 for a marker interval (time to a first frame) that
	// is not work of its own.
	parent     int
	start, end time.Duration
}

// spanLog records one replay worker's spans; a nil log records nothing,
// which is the untraced replay the tracing overhead is measured against.
type spanLog struct {
	epoch time.Time
	req   int
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, req: l.req, parent: parent, start: time.Since(l.epoch)})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l != nil {
		l.spans[id].end = time.Since(l.epoch)
	}
}

// add records an already-timed child span.
func (l *spanLog) add(name string, parent int, start, end time.Duration) {
	if l != nil {
		l.spans = append(l.spans, span{name: name, req: l.req, parent: parent, start: start, end: end})
	}
}

func (l *spanLog) now() time.Duration {
	if l == nil {
		return 0
	}
	return time.Since(l.epoch)
}

// replayer is one replay's state: its own engine cache (and store),
// prepared as the workload's set-up prepared the server.
type replayer struct {
	b     *bench
	cache *service.EngineCache
	disk  store.Store

	mu      sync.Mutex
	unfolds []string // specs unfolded, for the allocation probe
	tier    tierCount
	seeded  atomic.Int64
	builds  atomic.Int64

	// putMedian and puts describe the store's write path, timed while
	// the replay store was filled.
	putMedian float64
	puts      int
}

// resetCounts forgets the builds of the replay's own set-up, so the
// counts cover the replayed window only.
func (rp *replayer) resetCounts() {
	rp.mu.Lock()
	rp.unfolds, rp.tier = nil, tierCount{}
	rp.mu.Unlock()
	rp.seeded.Store(0)
	rp.builds.Store(0)
}

func newReplayer(b *bench, disk store.Store) *replayer {
	return &replayer{b: b, cache: service.NewEngineCache(128), disk: disk}
}

// engine reads through the replay's engine cache; a miss is a registry
// build (the protocol unfold) plus core.NewSeeded against the chain's
// neighbour, as the server's lazy sources do.
func (rp *replayer) engine(l *spanLog, root int, key string, neighbour *core.Engine) (*core.Engine, error) {
	return rp.cache.Get(key, func() (*core.Engine, error) {
		sp := l.begin("protocol", root)
		sys, err := rp.b.reg.Build(key)
		l.end(sp)
		if err != nil {
			return nil, err
		}
		sc := l.begin("core", root)
		e, ok := core.NewSeeded(sys, neighbour)
		l.end(sc)
		rp.builds.Add(1)
		if ok {
			rp.seeded.Add(1)
		}
		rp.mu.Lock()
		rp.unfolds = append(rp.unfolds, key)
		rp.tier.add(sys)
		rp.mu.Unlock()
		return e, nil
	})
}

// replayEval mirrors one /v1/eval request: resolve, store lookup,
// engine builds for un-stored work, evaluation, encode, write-back.
func (rp *replayer) replayEval(l *spanLog, body evalBody) error {
	// Decoding the body is the service layer's work: it stays outside
	// the request span, so it counts in service.overhead_ms.
	batches := make([][]query.Query, len(body.systems))
	for i, s := range body.systems {
		if body.shared && i > 0 {
			batches[i] = batches[0]
			continue
		}
		var err error
		if batches[i], err = query.ParseBatch([]byte(s.queries)); err != nil {
			return err
		}
	}
	root := l.begin("request", -1)
	defer l.end(root)
	keys := make([]string, len(body.systems))
	docs := make([][]*query.ResultDoc, len(body.systems))
	for i, s := range body.systems {
		sp := l.begin("registry", root)
		k, err := rp.b.reg.Canonical(s.spec)
		l.end(sp)
		if err != nil {
			return err
		}
		keys[i] = k
		docs[i] = make([]*query.ResultDoc, len(batches[i]))
		if rp.disk == nil || body.approx {
			continue
		}
		for j, q := range batches[i] {
			sp := l.begin("store.get", root)
			raw, err := query.MarshalCanonical(q)
			if err != nil {
				l.end(sp)
				return err
			}
			data, err := rp.disk.Get(store.NewKey(k, raw))
			var doc query.ResultDoc
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			l.end(sp)
			if err == nil {
				docs[i][j] = &doc
			}
		}
	}
	var items []query.MultiItem
	for i := range body.systems {
		var qs []query.Query
		for j, q := range batches[i] {
			if docs[i][j] == nil {
				qs = append(qs, q)
			}
		}
		if len(qs) == 0 {
			continue
		}
		e, err := rp.engine(l, root, keys[i], nil)
		if err != nil {
			return err
		}
		item := query.MultiItem{Engine: e, Queries: qs}
		if body.approx {
			// The sampling model memoized beside the engine, as the
			// server injects it.
			item.Model, _ = rp.cache.ModelFor(keys[i])
		}
		items = append(items, item)
	}
	var results []query.Result
	if len(items) > 0 && !body.approx {
		// Exact slots evaluate one by one through query.Eval, so each
		// slot's span is exactly its evaluation; the stream core's
		// worker fan-out the server adds stays in the service share.
		sq := l.begin("query", root)
		start := l.now()
		for _, item := range items {
			for _, q := range item.Queries {
				sk := l.begin("query."+string(q.Kind()), sq)
				res, err := query.Eval(item.Engine, q)
				l.end(sk)
				if err != nil {
					return err
				}
				if len(results) == 0 {
					l.add("query.first", -2, start, l.now())
				}
				results = append(results, res)
			}
		}
		l.end(sq)
	} else if len(items) > 0 {
		// The approximate tier has only the streamed entry point: slot
		// spans are the gaps between frames.
		opts := []query.Option{query.WithParallelism(1)}
		if body.approx {
			opts = append(opts, query.WithApprox(approxSpec))
		}
		sq := l.begin("query", root)
		start := l.now()
		prev := start
		firstApprox := true
		for f := range query.EvalMultiStream(items, opts...) {
			if f.Terminal() {
				if f.Status != query.StreamComplete {
					return fmt.Errorf("replay ended %s", f.Status)
				}
				continue
			}
			now := l.now()
			name := "query." + string(f.Result.Kind)
			if f.Stage == query.StageApprox {
				name = "montecarlo.sample"
				if firstApprox {
					l.add("montecarlo.first", -2, start, now)
					firstApprox = false
				}
			}
			if prev == start {
				l.add("query.first", -2, start, now)
			}
			l.add(name, sq, prev, now)
			prev = now
			if f.Stage != query.StageApprox {
				results = append(results, f.Result)
			}
		}
		l.end(sq)
	}
	se := l.begin("encode", root)
	for _, res := range results {
		if _, err := json.Marshal(query.DocOf(res)); err != nil {
			l.end(se)
			return err
		}
	}
	for i := range docs {
		for _, d := range docs[i] {
			if d != nil {
				if _, err := json.Marshal(d); err != nil {
					l.end(se)
					return err
				}
			}
		}
	}
	l.end(se)
	return nil
}

// replaySweep mirrors one /v1/envelope request: space resolution, one
// engine per assignment chained through a per-request seed, the
// envelope fold, encode.
func (rp *replayer) replaySweep(l *spanLog, it *sweepItem) error {
	inner, err := query.Parse([]byte(it.query))
	if err != nil {
		return err
	}
	root := l.begin("request", -1)
	defer l.end(root)
	sp := l.begin("registry", root)
	rs, err := rp.b.reg.ResolveSpace(it.space)
	l.end(sp)
	if err != nil {
		return err
	}
	var items []query.EnvelopeItem
	var seed *core.Engine
	for _, inst := range rs.Instances() {
		e, err := rp.engine(l, root, inst.Canonical, seed)
		if err != nil {
			return err
		}
		if seed == nil {
			seed = e
		}
		items = append(items, query.EnvelopeItem{Assignment: inst.Assignment.String(), Spec: inst.Canonical, Engine: e})
	}
	sq := l.begin("query.envelope", root)
	start := l.now()
	prev := start
	frames, err := query.EnvelopeStream(query.EnvelopeQuery{Inner: inner, Items: items}, query.WithParallelism(1))
	if err != nil {
		return err
	}
	var final query.Range
	slots := make([]query.Result, len(items))
	for f := range frames {
		now := l.now()
		if f.Terminal() {
			final = f.Envelope
			continue
		}
		if prev == start {
			l.add("query.first", -2, start, now)
		}
		l.add("query."+string(f.Result.Kind), sq, prev, now)
		prev = now
		slots[f.Index] = f.Result
	}
	l.end(sq)
	se := l.begin("encode", root)
	for _, res := range slots {
		if _, err := json.Marshal(query.DocOf(res)); err != nil {
			l.end(se)
			return err
		}
	}
	_, err = json.Marshal(query.RangeDocOf(final))
	l.end(se)
	return err
}

// pass configures one replay of a request list.
type pass struct {
	traced bool
	// stop, when set, is when workers stop taking new requests.
	stop time.Time
	// url, when set, sends each request over HTTP and checks the reply
	// right before replaying it, so the two are measured back to back
	// under the same host conditions; the latency lands in lat.
	url   string
	check func(r *request, status int, body []byte) error
	lat   []float64
	// took, when set, receives each request's replay time.
	took []float64
}

// replay runs reqs through the replayer with as many concurrent
// workers as the window had clients, so CPU contention matches. The
// requests replayed are always a prefix of reqs, whose length is
// returned.
func (rp *replayer) replay(reqs []*request, workers int, p pass) ([]*spanLog, int, error) {
	var next atomic.Int64
	logs := make([]*spanLog, workers)
	errs := make([]error, workers)
	epoch := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if p.traced {
			logs[w] = &spanLog{epoch: epoch}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := logs[w]
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for p.stop.IsZero() || time.Now().Before(p.stop) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if l != nil {
					l.req = i
				}
				if p.url != "" {
					start := time.Now()
					status, body, _, err := send(client, p.url, r)
					p.lat[i] = ms(time.Since(start))
					if err == nil {
						err = p.check(r, status, body)
					}
					if err != nil {
						errs[w] = fmt.Errorf("request %d: %w", r.idx, err)
						return
					}
				}
				start := time.Now()
				var err error
				switch it := r.item.(type) {
				case evalBody:
					err = rp.replayEval(l, it)
				case *floodItem:
					err = rp.replayEval(l, it.body)
				case *sweepItem:
					err = rp.replaySweep(l, it)
				default:
					err = fmt.Errorf("request %d has no replay", i)
				}
				if err != nil {
					errs[w] = err
					return
				}
				if p.took != nil {
					p.took[i] = ms(time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return logs, min(int(next.Load()), len(reqs)), nil
}

// traceBudget bounds the paired pass to this share of the window.
const traceBudget = 0.3

// traceRun runs the paired pass, replays its requests again untraced,
// and reduces the spans and the window's counters to the per-layer
// metrics.
func traceRun(b *bench, w *workload, url string, win *window, wr *windowResult, s0, s1 snapshot, memo int) (map[string]metric, error) {
	// The paired pass continues the sequence after the window: for the
	// one-off workloads those requests are as new to the server as the
	// window's were.
	var seq []*request
	for i := win.n; i < 2*win.n; i++ {
		r := w.at(i)
		if r == nil {
			break
		}
		rr := *r
		rr.idx = i
		seq = append(seq, &rr)
	}
	workers := max(1, min(clients, len(seq)))

	// Traced pass, as long as the budget allows: each request over HTTP,
	// then replayed in-process with spans.
	rp, err := w.replayState()
	if err != nil {
		return nil, err
	}
	rp.resetCounts()
	lat, traced := make([]float64, len(seq)), make([]float64, len(seq))
	logs, done, err := rp.replay(seq, workers, pass{traced: true, stop: time.Now().Add(time.Duration(float64(b.dur) * traceBudget)),
		url: url, check: w.check, lat: lat, took: traced})
	if err != nil {
		return nil, err
	}
	replayed := seq[:done]

	// Untraced pass over the same requests from the same starting
	// state: the replay time without spans.
	rpu, err := w.replayState()
	if err != nil {
		return nil, err
	}
	untraced := make([]float64, len(replayed))
	if _, _, err := rpu.replay(replayed, workers, pass{took: untraced}); err != nil {
		return nil, err
	}

	m := reduceSpans(logs, lat[:done])
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("trace.requests", "count", float64(len(replayed)))
	put("trace.overhead_ms", "ms", (sum(traced[:done])-sum(untraced))/float64(max(1, len(replayed))))
	hits := win.after.EngineCache.Hits - win.before.EngineCache.Hits
	misses := win.after.EngineCache.Misses - win.before.EngineCache.Misses
	put("service.engine_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	put("service.memo_seeded", "count", float64(win.after.MemoSeeded-win.before.MemoSeeded))
	builds := rp.builds.Load()
	put("core.seeded_ratio", "ratio", ratio(float64(rp.seeded.Load()), float64(builds)))
	put("core.memo_entries", "count", float64(memo))
	put("protocol.unfold_allocs", "count", unfoldAllocs(b, rp.unfolds))
	tier := tierCount{big: rp.tier.big + win.tier.big, total: rp.tier.total + win.tier.total}
	put("pps.big_tier_share", "ratio", tier.share())
	if win.after.Store != nil && win.before.Store != nil {
		sh := win.after.Store.Hits - win.before.Store.Hits
		sm := win.after.Store.Misses - win.before.Store.Misses
		put("store.hit_ratio", "ratio", ratio(float64(sh), float64(sh+sm)))
	} else {
		put("store.hit_ratio", "ratio", 0)
	}
	n := float64(max(1, len(wr.recs)))
	put("runtime.gc_cpu_share", "ratio", ratio(s1.gcCPU-s0.gcCPU, s1.totalCPU-s0.totalCPU))
	put("runtime.gc_cycles_per_req", "count", float64(s1.gcCycles-s0.gcCycles)/n)
	put("host.steal_share", "ratio", ratio(float64(s1.steal-s0.steal), float64(s1.hostTotal-s0.hostTotal)))
	var checks []float64
	for _, r := range wr.recs {
		checks = append(checks, float64(r.check))
	}
	put("load.check_ms", "ms", quantile(checks, 0.5))
	// The window's tail latency, reported here without a bound: on a
	// shared host it moves with the host more than with the program.
	windowLat, _ := wr.latencies(speeds(wr.refs, wr.elapsed))
	put("latency_p99_ms", "ms", quantile(windowLat, 0.99))
	put("host.ref_unit_ms", "ms", refUnitMs(wr.refs))
	put("store.put_ms", "ms", rp.putMedian)
	put("store.puts", "count", float64(rp.puts))
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers are the span names whose self time is reported as a share.
var layers = []string{"registry", "protocol", "core", "query", "montecarlo", "encode", "store"}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// reduceSpans turns the replay's spans into per-layer metrics: counts,
// median time per call, and each layer's self-time share of the
// requests' HTTP latency, with the service layer's share being the
// latency the replay does not account for.
func reduceSpans(logs []*spanLog, lat []float64) map[string]metric {
	durs := map[string][]float64{} // per span name, ms
	self := map[string]float64{}   // per layer, ms
	rootDur := map[int]float64{}
	for _, l := range logs {
		if l == nil {
			continue
		}
		childCover := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				childCover[s.parent] += s.end - s.start
			}
		}
		for k, s := range l.spans {
			d := s.end - s.start
			durs[s.name] = append(durs[s.name], ms(d))
			if s.parent == -2 {
				continue // a marker interval (first frame), not work
			}
			if s.parent == -1 {
				rootDur[s.req] = ms(d)
				self["replay"] += ms(d - childCover[k])
				continue
			}
			self[layerOf(s.name)] += ms(d - childCover[k])
		}
	}
	var httpTotal, replayTotal float64
	var overhead []float64
	for i, d := range rootDur {
		httpTotal += lat[i]
		replayTotal += d
		overhead = append(overhead, lat[i]-d)
	}
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	med := func(name string) float64 { return quantile(durs[name], 0.5) }
	count := func(name string) float64 { return float64(len(durs[name])) }
	put("service.overhead_ms", "ms", quantile(overhead, 0.5))
	put("service.self_share", "ratio", ratio(httpTotal-replayTotal, httpTotal))
	put("replay.self_share", "ratio", ratio(self["replay"], httpTotal))
	for _, layer := range layers {
		put(layer+".self_share", "ratio", ratio(self[layer], httpTotal))
	}
	put("registry.resolve_us", "us", 1000*med("registry"))
	put("registry.resolves", "count", count("registry"))
	put("protocol.unfold_ms", "ms", med("protocol"))
	put("protocol.unfolds", "count", count("protocol"))
	put("core.build_us", "us", 1000*med("core"))
	put("core.builds", "count", count("core"))
	put("query.eval_ms", "ms", med("query"))
	put("query.evals", "count", count("query"))
	for _, kind := range []query.Kind{query.KindConstraint, query.KindExpectation, query.KindTheorem, query.KindThreshold, query.KindIndependence} {
		put("query.eval_ms."+string(kind), "ms", med("query."+string(kind)))
	}
	put("query.envelope_ms", "ms", med("query.envelope"))
	put("query.first_frame_ms", "ms", med("query.first"))
	put("montecarlo.approx_frame_ms", "ms", med("montecarlo.first"))
	put("montecarlo.samples", "count", count("montecarlo.sample"))
	put("query.encode_us", "us", 1000*med("encode"))
	put("store.get_us", "us", 1000*med("store.get"))
	put("store.gets", "count", count("store.get"))
	return m
}

// unfoldAllocs is the median heap allocations of one Registry.Build
// over up to five of the specs the replay unfolded (spread evenly over
// their sorted order), measured serially after the replay so concurrent
// workers do not pollute the count.
func unfoldAllocs(b *bench, specs []string) float64 {
	specs = append([]string(nil), specs...)
	sort.Strings(specs)
	var allocs []float64
	for k := 0; k < min(5, len(specs)); k++ {
		spec := specs[k*len(specs)/min(5, len(specs))]
		before := takeSnapshot().allocObjs
		if _, err := b.reg.Build(spec); err != nil {
			continue
		}
		allocs = append(allocs, float64(takeSnapshot().allocObjs-before))
	}
	return quantile(allocs, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
