package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"pak/internal/query"
	"pak/internal/scenarios"
	"pak/internal/store"
)

// storeKeyFor derives the content address the service files a
// (system spec, query) slot under — via the same resolution path.
func storeKeyFor(t *testing.T, srv *Server, spec string, q query.Query) store.Key {
	t.Helper()
	rt, err := srv.resolveTarget(spec)
	if err != nil {
		t.Fatalf("resolveTarget(%s): %v", spec, err)
	}
	raw, err := query.MarshalCanonical(q)
	if err != nil {
		t.Fatalf("MarshalCanonical: %v", err)
	}
	return store.NewKey(rt.key, raw)
}

func fetchStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out StatsResponse
	if err := json.Unmarshal([]byte(readAll(t, resp)), &out); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return out
}

// TestStoreRestartByteIdentity is the PR's acceptance criterion:
// evaluate a batch against a disk store, "restart" pakd (a brand-new
// Server — fresh engine cache, fresh counters — over the same
// -store-dir), replay the batch, and the response bytes are identical
// with store hits > 0 and ZERO engine builds — restart without
// recomputation, proven by diffing bytes.
func TestStoreRestartByteIdentity(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{"systems": ["nsquad(2)", "nsquad(n=3)"], "queries": %s}`, squadBatch(t))

	openStore := func() store.Store {
		d, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// First life: evaluate and persist.
	srv1 := New(nil, WithResultStore(openStore()))
	ts1 := httptest.NewServer(srv1.Handler())
	resp1, data1 := postEval(t, ts1, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first life: status %d: %s", resp1.StatusCode, data1)
	}
	stats1 := fetchStats(t, ts1)
	if stats1.Store == nil || stats1.Store.Writes != 8 || stats1.Store.Misses != 8 || stats1.Store.Hits != 0 {
		t.Fatalf("first life store stats = %+v, want 8 misses, 8 writes", stats1.Store)
	}
	ts1.Close()

	// Second life: a fresh process image over the same directory.
	srv2 := New(nil, WithResultStore(openStore()))
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	resp2, data2 := postEval(t, ts2, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second life: status %d: %s", resp2.StatusCode, data2)
	}
	if string(data1) != string(data2) {
		t.Errorf("replayed response is not byte-identical across restart:\nfirst:  %s\nsecond: %s", data1, data2)
	}
	stats2 := fetchStats(t, ts2)
	if stats2.Store == nil || stats2.Store.Hits != 8 || stats2.Store.Misses != 0 || stats2.Store.Writes != 0 {
		t.Errorf("second life store stats = %+v, want 8 hits and nothing else", stats2.Store)
	}
	// Zero engine rebuilds: both systems were fully stored, so the
	// fresh engine cache was never even consulted.
	if cs := srv2.Cache().Stats(); cs.Misses != 0 || cs.Len != 0 {
		t.Errorf("second life engine cache = %+v, want untouched (0 misses, 0 engines)", cs)
	}
}

// TestStoreStreamServesHits: the streaming path serves stored slots
// too — same frame bytes as a storeless server (sorted, since
// completion order is scheduling-dependent), zero engine builds on a
// fully warmed restart.
func TestStoreStreamServesHits(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, squadBatch(t))

	sortedResultLines := func(body string) []string {
		var lines []string
		for _, ln := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if strings.Contains(ln, `"frame":"result"`) {
				lines = append(lines, ln)
			}
		}
		sort.Strings(lines)
		return lines
	}

	plain := newTestServer(t)
	_, plainBody := postStream(t, plain, body)
	want := sortedResultLines(plainBody)

	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(nil, WithResultStore(d))
	ts1 := httptest.NewServer(srv1.Handler())
	// Populate through the STREAM path: it persists too.
	_, seed := postStream(t, ts1, body)
	parseStream(t, seed)
	ts1.Close()

	d2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(nil, WithResultStore(d2))
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	resp, got := postStream(t, ts2, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, got)
	}
	dec := parseStream(t, got)
	if dec.terminal.Status != string(query.StreamComplete) {
		t.Fatalf("terminal = %+v, want complete", dec.terminal)
	}
	gotLines := sortedResultLines(got)
	if len(gotLines) != len(want) {
		t.Fatalf("stream frame count %d, want %d", len(gotLines), len(want))
	}
	for i := range want {
		if gotLines[i] != want[i] {
			t.Errorf("frame %d differs from storeless stream:\ngot:  %s\nwant: %s", i, gotLines[i], want[i])
		}
	}
	if cs := srv2.Cache().Stats(); cs.Misses != 0 {
		t.Errorf("warmed stream still built %d engines, want 0", cs.Misses)
	}
	if st := srv2.storeStats(); st.Hits != 4 {
		t.Errorf("warmed stream hits = %d, want 4", st.Hits)
	}
}

// TestStoreCorruptNeverServed: a corrupt entry is counted, recomputed
// (the answer stays byte-identical to a clean evaluation) and healed
// by the write-back — never served.
func TestStoreCorruptNeverServed(t *testing.T) {
	mem := store.NewMemory()
	srv := New(nil, WithResultStore(mem))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	q := query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire}
	batch := mustBatch(t, q)
	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, batch)

	_, clean := postEval(t, ts, body)
	if !mem.Corrupt(storeKeyFor(t, srv, "nsquad(2)", q)) {
		t.Fatal("no stored entry to corrupt")
	}
	resp, again := postEval(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, again)
	}
	if string(clean) != string(again) {
		t.Errorf("recomputed answer differs from the clean one:\nclean: %s\nafter: %s", clean, again)
	}
	st := srv.storeStats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// The write-back healed the entry: third time is a pure hit.
	_, third := postEval(t, ts, body)
	if string(third) != string(clean) {
		t.Errorf("healed answer differs:\nclean:  %s\nhealed: %s", clean, third)
	}
	if st := srv.storeStats(); st.Hits != 1 || st.Writes != 2 {
		t.Errorf("store stats after heal = %+v, want 1 hit, 2 writes", st)
	}
}

// TestStoreNonResultDocNeverServed: a layout-2 disk entry that passes
// every integrity check but whose value is not a ResultDoc is counted
// as corrupt and recomputed — the service's decode is the check that
// refuses it — and the write-back heals it.
func TestStoreNonResultDocNeverServed(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(nil, WithResultStore(d))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	q := query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire}
	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, mustBatch(t, q))
	_, clean := postEval(t, newTestServer(t), body)

	rt, err := srv.resolveTarget("nsquad(2)")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := query.MarshalCanonical(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(store.Entry{System: rt.key, Query: raw, Value: []byte(`[1,2,3]`)}); err != nil {
		t.Fatal(err)
	}
	k := store.NewKey(rt.key, raw)
	if _, layout, err := d.Read(k); err != nil || layout != store.Layout2 {
		t.Fatalf("planted entry: %v, %v; want a hash-valid layout2 entry", layout, err)
	}

	resp, got := postEval(t, ts, body)
	if resp.StatusCode != http.StatusOK || string(got) != string(clean) {
		t.Fatalf("status %d; answer differs from a clean evaluation:\nclean: %s\ngot:   %s", resp.StatusCode, clean, got)
	}
	if st := srv.storeStats(); st.Corrupt != 1 || st.Hits != 0 || st.Writes != 1 {
		t.Errorf("store stats = %+v, want 1 corrupt, 0 hits, 1 healing write", st)
	}
	if _, again := postEval(t, ts, body); string(again) != string(clean) {
		t.Errorf("healed answer differs:\nclean:  %s\nhealed: %s", clean, again)
	}
	if st := srv.storeStats(); st.Hits != 1 {
		t.Errorf("store stats after heal = %+v, want 1 hit", st)
	}
}

// TestStoreSharedBatchKeys: a request whose systems share the top-level
// batch canonicalizes it once, yet files and finds every slot under the
// key per-system canonicalization derives; a system with its own batch
// beside them keeps its own. The shared form then hits, buffered and
// streamed, on every entry the per-system form wrote, with the same
// bytes.
func TestStoreSharedBatchKeys(t *testing.T) {
	mem := store.NewMemory()
	srv := New(nil, WithResultStore(mem))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	specs := []string{"nsquad(2)", "nsquad(3)", "nsquad(n=2,improved=true)"}
	batch := squadBatch(t)
	qs, err := query.ParseBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	own := query.ExpectationQuery{Fact: scenarios.AllFireFact(2), Agent: "s1", Action: scenarios.ActFire}
	mixed := fmt.Sprintf(`{"queries": %s, "requests": [{"system": %q}, {"system": %q, "queries": %s}, {"system": %q}]}`,
		batch, specs[0], specs[1], mustBatch(t, own), specs[2])
	plan, ok := srv.decodeEvalRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(mixed)))
	if !ok {
		t.Fatal("decodeEvalRequest refused the mixed request")
	}
	if want := []bool{true, false, true}; fmt.Sprint(plan.shared) != fmt.Sprint(want) {
		t.Fatalf("plan.shared = %v, want %v", plan.shared, want)
	}
	lk := srv.lookupStored(plan)
	for i, spec := range specs {
		batchQs := qs
		if i == 1 {
			batchQs = []query.Query{own}
		}
		for j, q := range batchQs {
			if got, want := lk.keys[i][j], storeKeyFor(t, srv, spec, q); got != want {
				t.Errorf("slot [%d][%d] key %s, want %s", i, j, got, want)
			}
		}
	}
	if &lk.raws[0][0] != &lk.raws[2][0] {
		t.Error("the shared batch was canonicalized once per system")
	}

	// The per-system form populates; the shared form then hits on all
	// of it, byte-identically.
	perSystem := make([]string, len(specs))
	quoted := make([]string, len(specs))
	for i, spec := range specs {
		perSystem[i] = fmt.Sprintf(`{"system": %q, "queries": %s}`, spec, batch)
		quoted[i] = fmt.Sprintf("%q", spec)
	}
	_, want := postEval(t, ts, fmt.Sprintf(`{"requests": [%s]}`, strings.Join(perSystem, ",")))
	slots := int64(len(specs) * len(qs))
	if st := srv.storeStats(); st.Writes != slots {
		t.Fatalf("per-system form wrote %d entries, want %d", st.Writes, slots)
	}
	shared := fmt.Sprintf(`{"systems": [%s], "queries": %s, "parallelism": 1}`, strings.Join(quoted, ","), batch)
	if _, got := postEval(t, ts, shared); string(got) != string(want) {
		t.Errorf("shared form differs from the per-system form:\nshared:     %s\nper-system: %s", got, want)
	}
	_, streamed := postStream(t, ts, shared)
	_, plain := postStream(t, newTestServer(t), shared)
	if streamed != plain {
		t.Errorf("stored stream differs from a storeless serial stream:\nstored:    %s\nstoreless: %s", streamed, plain)
	}
	// Misses: the direct lookup of the mixed plan into the empty store,
	// then the populating request.
	misses := int64(2*len(qs)+1) + slots
	if st := srv.storeStats(); st.Hits != 2*slots || st.Misses != misses || st.Corrupt != 0 {
		t.Errorf("store stats = %+v, want %d hits and %d misses", st, 2*slots, misses)
	}
	if cs := srv.Cache().Stats(); cs.Misses != uint64(len(specs)) {
		t.Errorf("engine builds = %d, want %d (the shared form builds nothing)", cs.Misses, len(specs))
	}
}

// flushCounter records, at each Flush, how many NDJSON lines had been
// written.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushedAt []int
}

func (f *flushCounter) Flush() {
	f.flushedAt = append(f.flushedAt, strings.Count(f.Body.String(), "\n"))
	f.ResponseRecorder.Flush()
}

// TestStoreStreamOneFlush: a fully stored stream writes its frames back
// to back and flushes once before the terminal frame, and its bytes are
// those of a storeless serial stream.
func TestStoreStreamOneFlush(t *testing.T) {
	srv := New(nil, WithResultStore(store.NewMemory()))
	body := fmt.Sprintf(`{"systems": ["nsquad(2)", "nsquad(3)"], "queries": %s, "parallelism": 1}`, squadBatch(t))
	stream := func(h http.Handler) *flushCounter {
		rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval/stream", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	cold := stream(srv.Handler())
	if got := fmt.Sprint(cold.flushedAt); got != "[1 2 3 4 5 6 7 8 9]" {
		t.Errorf("an evaluated stream flushed after lines %s, want after every frame", got)
	}
	warm := stream(srv.Handler())
	if st := srv.storeStats(); st.Hits != 8 {
		t.Fatalf("warm stream hits = %d, want 8", st.Hits)
	}
	if got := fmt.Sprint(warm.flushedAt); got != "[8 9]" {
		t.Errorf("a stored stream flushed after lines %s, want [8 9]: once for the stored frames, once for the terminal", got)
	}
	plain := stream(New(nil).Handler())
	if warm.Body.String() != plain.Body.String() {
		t.Errorf("stored stream differs from a storeless one:\nstored:    %s\nstoreless: %s", warm.Body, plain.Body)
	}
}

// TestStorePersistenceContract: what must never be written — approx
// results (whole requests bypass the tier), error slots, and slots of
// a request whose context already has a cause.
func TestStorePersistenceContract(t *testing.T) {
	mem := store.NewMemory()
	srv := New(nil, WithResultStore(mem))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// An approx request writes (and reads) nothing.
	q := query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire}
	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s, "approx": {"samples": 64}}`, mustBatch(t, q))
	if resp, data := postEval(t, ts, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("approx eval: status %d: %s", resp.StatusCode, data)
	}
	if st := srv.storeStats(); st.Writes != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("approx request touched the store: %+v", st)
	}

	// A batch with one good and one failing slot persists only the good
	// one.
	bad := query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: "Nobody", Action: scenarios.ActFire}
	body = fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, mustBatch(t, q, bad))
	resp, data := postEval(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed eval: status %d: %s", resp.StatusCode, data)
	}
	var out EvalResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Results[1].Error == "" {
		t.Fatal("expected the Nobody slot to fail")
	}
	if st := srv.storeStats(); st.Writes != 1 {
		t.Errorf("mixed batch wrote %d entries, want 1 (the non-error slot)", st.Writes)
	}
	if n, _ := mem.Len(); n != 1 {
		t.Errorf("store holds %d entries, want 1", n)
	}

	// The persist guard refuses once the request context has a cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := evalPlan{
		targets: []resolved{{key: "nsquad(n=2,loss=1/10,improved=false)"}},
		batches: [][]query.Query{{q}},
	}
	lk := srv.lookupStored(plan)
	if lk == nil {
		t.Fatal("lookupStored = nil with a configured store")
	}
	before := srv.stats.storeWrites.Load()
	srv.persistResult(ctx, lk, plan.targets[0].key, 0, 0, query.ResultDoc{Kind: query.KindConstraint, Value: "1"})
	if srv.stats.storeWrites.Load() != before {
		t.Error("persistResult wrote under a cancelled context")
	}
	// And with a live context the same slot does write.
	srv.persistResult(context.Background(), lk, plan.targets[0].key, 0, 0, query.ResultDoc{Kind: query.KindConstraint, Value: "1"})
	if srv.stats.storeWrites.Load() != before+1 {
		t.Error("persistResult refused a live, complete, exact slot")
	}
}

// TestStatsStoreGolden pins the /v1/stats wire shape with a store
// configured, after a deterministic priming sequence: one miss-and-
// write pass, one all-hit pass, then a corrupt-and-heal pass.
func TestStatsStoreGolden(t *testing.T) {
	mem := store.NewMemory()
	srv := New(nil, WithResultStore(mem))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	q1 := query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire}
	q2 := query.ExpectationQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire}
	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, mustBatch(t, q1, q2))

	for i := 0; i < 2; i++ {
		if resp, data := postEval(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("prime %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	if !mem.Corrupt(storeKeyFor(t, srv, "nsquad(2)", q1)) {
		t.Fatal("no entry to corrupt")
	}
	if resp, data := postEval(t, ts, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("heal pass: status %d: %s", resp.StatusCode, data)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	var out StatsResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	// len 2; pass 1: 2 misses + 2 writes; pass 2: 2 hits; pass 3:
	// 1 corrupt + 1 hit + 1 healing write. Engine cache: pass 1 misses,
	// pass 3 hits (pass 2 never consults it).
	want := StoreStats{Len: 2, Hits: 3, Misses: 2, Corrupt: 1, Writes: 3}
	if out.Store == nil || *out.Store != want {
		t.Errorf("store stats = %+v, want %+v", out.Store, want)
	}
	if out.EngineCache.Misses != 1 || out.EngineCache.Hits != 1 {
		t.Errorf("engine cache = %+v, want 1 miss, 1 hit", out.EngineCache)
	}
	goldenCompare(t, "stats-store", body)
}

// TestClientQuota429: the n+1-th concurrent request of one client is
// refused with the golden-pinned 429 body before any work happens;
// other clients are unaffected, and release restores admission.
func TestClientQuota429(t *testing.T) {
	srv := New(nil, WithClientQuota(1))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, squadBatch(t))
	post := func(path, client string) (*http.Response, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(clientIDHeader, client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, readAll(t, resp)
	}

	// Pin the quota full for "loadgen" deterministically.
	if !srv.quota.acquire("loadgen") {
		t.Fatal("fresh quota refused its first slot")
	}

	for _, path := range []string{"/v1/eval", "/v1/eval/stream", "/v1/envelope", "/v1/envelope/stream"} {
		resp, data := post(path, "loadgen")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s over quota: status %d, want 429 (%s)", path, resp.StatusCode, data)
		}
		if path == "/v1/eval" {
			goldenCompare(t, "quota-429", data)
		}
	}

	// A different client is admitted while loadgen is full.
	if resp, data := post("/v1/eval", "other"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client: status %d, want 200 (%s)", resp.StatusCode, data)
	}

	// Releasing the slot restores admission (and the inflight table
	// shrinks back to empty, not merely to zero).
	srv.quota.release("loadgen")
	if resp, data := post("/v1/eval", "loadgen"); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200 (%s)", resp.StatusCode, data)
	}
	srv.quota.mu.Lock()
	n := len(srv.quota.inflight)
	srv.quota.mu.Unlock()
	if n != 0 {
		t.Errorf("inflight table holds %d entries after drain, want 0", n)
	}
}

// TestClientQuotaIdentity: header beats remote address; anonymous
// clients fall back to their source host.
func TestClientQuotaIdentity(t *testing.T) {
	r, _ := http.NewRequest(http.MethodPost, "/v1/eval", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if got := clientID(r); got != "10.1.2.3" {
		t.Errorf("anonymous clientID = %q, want the source host", got)
	}
	r.Header.Set(clientIDHeader, "replica-7")
	if got := clientID(r); got != "replica-7" {
		t.Errorf("named clientID = %q, want replica-7", got)
	}
}
