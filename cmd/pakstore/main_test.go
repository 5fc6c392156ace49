package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"pak/internal/query"
	"pak/internal/scenarios"
	"pak/internal/service"
	"pak/internal/store"
	"pak/internal/store/storetest"
)

// populate evaluates one small batch through a store-backed in-process
// pakd, so the directory under test holds real service-written
// entries, not synthetic ones.
func populate(t *testing.T, dir string) {
	t.Helper()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.New(nil, service.WithResultStore(d)).Handler())
	defer ts.Close()

	batch, err := query.MarshalBatch([]query.Query{
		query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire},
		query.ExpectationQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, batch)
	resp, err := ts.Client().Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("populate: status %d", resp.StatusCode)
	}
}

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSummaryListVerifyGC(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)

	// Summary.
	code, out, _ := runCmd(t, "-dir", dir)
	if code != 0 || !strings.Contains(out, "2 entries") || !strings.Contains(out, "(0 corrupt)") {
		t.Fatalf("summary: code %d, out %q", code, out)
	}

	// List: one line per entry, carrying system and kind.
	code, out, _ = runCmd(t, "-dir", dir, "-list")
	if code != 0 {
		t.Fatalf("list: code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("list printed %d lines, want 2:\n%s", len(lines), out)
	}
	joined := out
	for _, want := range []string{"nsquad(n=2,loss=1/10,improved=false)", "constraint", "expectation"} {
		if !strings.Contains(joined, want) {
			t.Errorf("list output is missing %q:\n%s", want, out)
		}
	}

	// Verify: clean.
	code, out, _ = runCmd(t, "-dir", dir, "-verify")
	if code != 0 || !strings.Contains(out, "all verified") {
		t.Fatalf("verify clean: code %d, out %q", code, out)
	}

	// Corrupt one entry: verify names it and exits 1; the summary
	// counts it.
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := d.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("keys: %v, %v", keys, err)
	}
	data, err := os.ReadFile(d.Path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(d.Path(keys[0]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, serr := runCmd(t, "-dir", dir, "-verify")
	if code != 1 || !strings.Contains(out, "CORRUPT "+string(keys[0])) {
		t.Fatalf("verify corrupt: code %d, out %q, err %q", code, out, serr)
	}
	code, out, _ = runCmd(t, "-dir", dir)
	if code != 0 || !strings.Contains(out, "(1 corrupt)") {
		t.Fatalf("summary with corruption: code %d, out %q", code, out)
	}

	// GC to one entry.
	code, out, _ = runCmd(t, "-dir", dir, "-gc", "1")
	if code != 0 || !strings.Contains(out, "removed 1 entries, 1 kept") {
		t.Fatalf("gc: code %d, out %q", code, out)
	}
	if n, _ := d.Len(); n != 1 {
		t.Fatalf("store holds %d entries after gc, want 1", n)
	}
}

func TestBadInvocations(t *testing.T) {
	if code, _, serr := runCmd(t); code != 2 || !strings.Contains(serr, "-dir") {
		t.Errorf("missing -dir: code %d, stderr %q", code, serr)
	}
	if code, _, _ := runCmd(t, "-nope"); code != 2 {
		t.Error("unknown flag accepted")
	}
}

// TestListedQueriesReparse: the canonical query documents an entry
// carries are real parseable queries — the store's coordinates stay
// round-trippable, not just printable.
func TestListedQueriesReparse(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := d.Keys()
	for _, k := range keys {
		e, _, err := d.Read(k)
		if err != nil {
			t.Fatalf("Read(%s): %v", k, err)
		}
		if _, err := query.Parse(e.Query); err != nil {
			t.Errorf("stored query for %s does not re-parse: %v", k, err)
		}
		var doc query.ResultDoc
		if err := json.Unmarshal(e.Value, &doc); err != nil {
			t.Errorf("stored value for %s is not a ResultDoc: %v", k, err)
		}
	}
}

// TestMigrate: a store holding v1 entries (the service's answers,
// rewritten in the v1 layout by the test helper) plus one corrupt v1
// entry. -migrate rewrites the verified entries as layout2 at the same
// addresses with identical value bytes, names and keeps the corrupt
// one, exits 1 for it, and a second run changes nothing.
func TestMigrate(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir)
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := d.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("keys: %v, %v", keys, err)
	}
	want := map[store.Key][]byte{}
	var first store.Entry
	for i, k := range keys {
		e, _, err := d.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = e
		}
		if _, err := storetest.WriteV1(d, e); err != nil {
			t.Fatal(err)
		}
		want[k] = e.Value
	}
	bad, err := storetest.WriteV1(d, store.Entry{System: "nsquad(n=9)", Query: first.Query, Value: first.Value})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(d.Path(bad))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(d.Path(bad), data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, _ := runCmd(t, "-dir", dir)
	if code != 0 || !strings.Contains(out, "3 entries") || !strings.Contains(out, "(1 corrupt); 2 layout1, 0 layout2") {
		t.Fatalf("v1 summary: code %d, out %q", code, out)
	}
	code, out, _ = runCmd(t, "-dir", dir, "-list")
	if code != 0 || strings.Count(out, "  layout1  ") != 2 || !strings.Contains(out, string(bad)+"  CORRUPT") {
		t.Fatalf("v1 list: code %d, out %q", code, out)
	}

	code, out, serr := runCmd(t, "-dir", dir, "-migrate")
	if code != 1 || !strings.Contains(out, "CORRUPT "+string(bad)) || !strings.Contains(out, "migrated 2 of 3") {
		t.Fatalf("migrate: code %d, out %q, err %q", code, out, serr)
	}
	for k, v := range want {
		got, err := d.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Errorf("Get(%s) after migration = %s, %v; want %s", k, got, err, v)
		}
		if _, layout, _ := d.Read(k); layout != store.Layout2 {
			t.Errorf("%s is %v after migration, want layout2", k, layout)
		}
	}
	if after, _ := os.ReadFile(d.Path(bad)); !bytes.Equal(after, data) {
		t.Error("migration touched the corrupt entry")
	}

	// A second run rewrites nothing: every file keeps its mtime.
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, k := range append(keys, bad) {
		if err := os.Chtimes(d.Path(k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	code, out, _ = runCmd(t, "-dir", dir, "-migrate")
	if code != 1 || !strings.Contains(out, "migrated 0 of 3") {
		t.Fatalf("second migrate: code %d, out %q", code, out)
	}
	for _, k := range append(keys, bad) {
		if fi, err := os.Stat(d.Path(k)); err != nil || !fi.ModTime().Equal(old) {
			t.Errorf("second migrate rewrote %s", k)
		}
	}

	// Without the corrupt entry the store verifies clean and migrates
	// with exit 0.
	if err := os.Remove(d.Path(bad)); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCmd(t, "-dir", dir, "-verify"); code != 0 || !strings.Contains(out, "2 entries, all verified") {
		t.Fatalf("verify after migration: code %d, out %q", code, out)
	}
	if code, out, _ := runCmd(t, "-dir", dir, "-migrate"); code != 0 || !strings.Contains(out, "migrated 0 of 2") {
		t.Fatalf("clean migrate: code %d, out %q", code, out)
	}
	if code, out, _ := runCmd(t, "-dir", dir); code != 0 || !strings.Contains(out, "(0 corrupt); 0 layout1, 2 layout2") {
		t.Fatalf("migrated summary: code %d, out %q", code, out)
	}
}
