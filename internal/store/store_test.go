package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pak/internal/logic"
	"pak/internal/query"
	"pak/internal/store"
	"pak/internal/store/storetest"
)

// canonicalQuery returns a real canonical query document — the exact
// key component the service uses.
func canonicalQuery(t testing.TB) []byte {
	t.Helper()
	doc, err := query.MarshalCanonical(query.ConstraintQuery{
		Fact: logic.True(), Agent: "Alice", Action: "fire",
	})
	if err != nil {
		t.Fatalf("MarshalCanonical: %v", err)
	}
	return doc
}

// sampleValue is a compact ResultDoc payload with an exact rational.
func sampleValue(t testing.TB) []byte {
	t.Helper()
	data, err := json.Marshal(query.ResultDoc{
		Kind: query.KindConstraint, Query: "constraint", Value: "2/3",
		Verdict: "holds", WitnessRuns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestKeyDerivation(t *testing.T) {
	q := canonicalQuery(t)
	k1 := store.NewKey("nsquad(n=2)", q)
	k2 := store.NewKey("nsquad(n=2)", q)
	if k1 != k2 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}
	if k3 := store.NewKey("nsquad(n=3)", q); k3 == k1 {
		t.Fatal("distinct systems share a key")
	}
	if k4 := store.NewKey("nsquad(n=2)", append(append([]byte(nil), q...), ' ')); k4 == k1 {
		t.Fatal("distinct query bytes share a key")
	}
	// The NUL separator forbids boundary shifts: ("ab","c") != ("a","bc").
	if store.NewKey("ab", []byte("c")) == store.NewKey("a", []byte("bc")) {
		t.Fatal("component boundary is ambiguous")
	}
	if len(k1) != 64 {
		t.Fatalf("key length %d, want 64 hex digits", len(k1))
	}
}

// backends runs one subtest per Store implementation so both keep the
// same observable discipline.
func backends(t *testing.T, run func(t *testing.T, st store.Store)) {
	t.Run("memory", func(t *testing.T) { run(t, store.NewMemory()) })
	t.Run("disk", func(t *testing.T) {
		d, err := store.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		run(t, d)
	})
}

func TestRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, st store.Store) {
		q := canonicalQuery(t)
		val := sampleValue(t)
		k := store.NewKey("nsquad(n=2)", q)

		if _, err := st.Get(k); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("cold Get = %v, want ErrNotFound", err)
		}
		if err := st.Put(store.Entry{System: "nsquad(n=2)", Query: q, Value: val}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, err := st.Get(k)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("Get = %s, want %s", got, val)
		}
		if n, err := st.Len(); err != nil || n != 1 {
			t.Fatalf("Len = %d, %v, want 1", n, err)
		}
		// Overwriting the same coordinates is idempotent.
		if err := st.Put(store.Entry{System: "nsquad(n=2)", Query: q, Value: val}); err != nil {
			t.Fatalf("re-Put: %v", err)
		}
		if n, _ := st.Len(); n != 1 {
			t.Fatalf("Len after re-Put = %d, want 1", n)
		}
	})
}

func TestBadKeyRejected(t *testing.T) {
	backends(t, func(t *testing.T, st store.Store) {
		// A path-traversal-shaped key must be refused outright, not
		// resolved relative to the store directory.
		if _, err := st.Get(store.Key("../../etc/passwd")); !errors.Is(err, store.ErrBadKey) {
			t.Fatalf("Get(traversal) = %v, want ErrBadKey", err)
		}
		if _, err := st.Get(store.Key("UPPER")); !errors.Is(err, store.ErrBadKey) {
			t.Fatalf("Get(short) = %v, want ErrBadKey", err)
		}
	})
}

func TestMemoryCorruptDetected(t *testing.T) {
	m := store.NewMemory()
	q := canonicalQuery(t)
	k := store.NewKey("sys", q)
	if err := m.Put(store.Entry{System: "sys", Query: q, Value: sampleValue(t)}); err != nil {
		t.Fatal(err)
	}
	if !m.Corrupt(k) {
		t.Fatal("Corrupt reported no entry")
	}
	if _, err := m.Get(k); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Get(corrupted) = %v, want ErrCorrupt", err)
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := canonicalQuery(t)
	val := sampleValue(t)
	if err := d.Put(store.Entry{System: "nsquad(n=2)", Query: q, Value: val}); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh handle over the same directory serves the
	// stored bytes identically.
	d2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get(store.NewKey("nsquad(n=2)", q))
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("reopened Get = %s, want %s", got, val)
	}

	e, layout, err := d2.Read(store.NewKey("nsquad(n=2)", q))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if e.System != "nsquad(n=2)" || layout != store.Layout2 {
		t.Fatalf("Read system = %q, layout %v; want nsquad(n=2) in layout2", e.System, layout)
	}
}

func TestDiskIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-Put leaves a temp file; user droppings happen too.
	// Neither counts as an entry.
	for _, name := range []string{".put-123", "README", "notakey.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := d.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v, want 0", n, err)
	}
}

func TestDiskNonCanonicalPutRejected(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Indented query bytes would be compacted inside the envelope and
	// re-derive a different address on read — Put must refuse rather
	// than file a permanently corrupt entry.
	indented := []byte("{\n  \"kind\": \"constraint\"\n}")
	err = d.Put(store.Entry{System: "sys", Query: indented, Value: sampleValue(t)})
	if err == nil {
		t.Fatal("Put accepted non-canonical query bytes")
	}
	if n, _ := d.Len(); n != 0 {
		t.Fatalf("rejected Put left %d entries", n)
	}
}

func TestDiskVerifyAndGC(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := canonicalQuery(t)
	systems := []string{"a(n=1)", "b(n=2)", "c(n=3)"}
	for i, sys := range systems {
		if err := d.Put(store.Entry{System: sys, Query: q, Value: sampleValue(t)}); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so GC's newest-first order is deterministic.
		mod := time.Now().Add(time.Duration(i-len(systems)) * time.Hour)
		if err := os.Chtimes(d.Path(store.NewKey(sys, q)), mod, mod); err != nil {
			t.Fatal(err)
		}
	}

	if bad, err := d.Verify(); err != nil || len(bad) != 0 {
		t.Fatalf("Verify clean store = %v, %v", bad, err)
	}

	// Corrupt one entry on disk: verify names it, Get refuses it.
	victim := store.NewKey("a(n=1)", q)
	data, err := os.ReadFile(d.Path(victim))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(d.Path(victim), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rewriting bumped the mtime; restore it so the victim stays the
	// oldest entry for the GC leg below.
	oldest := time.Now().Add(time.Duration(-len(systems)) * time.Hour)
	if err := os.Chtimes(d.Path(victim), oldest, oldest); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != victim {
		t.Fatalf("Verify = %v, want [%s]", bad, victim)
	}
	if _, err := d.Get(victim); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Get(corrupt) = %v, want ErrCorrupt", err)
	}

	// GC keeps the 2 newest entries ("c" is newest, "a" oldest).
	removed, err := d.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d, want 1", removed)
	}
	if _, err := d.Get(store.NewKey("c(n=3)", q)); err != nil {
		t.Fatalf("newest entry gone after GC: %v", err)
	}
	if _, err := d.Get(victim); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("oldest entry survived GC: %v", err)
	}
	if n, _ := d.Len(); n != 2 {
		t.Fatalf("Len after GC = %d, want 2", n)
	}
}

// TestDiskGetAllocs gates the allocation count of a layout-2 hit,
// which is exact where its wall time is not. Get measured 11 allocs
// on linux/amd64 with Go 1.24, with or without -race: the file read
// (open, stat, buffer), the system string and the key re-derivation.
// The same hit in the v1 JSON envelope costs 24 (BenchmarkStoreHit).
// The ceiling leaves a quarter of headroom.
func TestDiskGetAllocs(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := canonicalQuery(t)
	if err := d.Put(store.Entry{System: "nsquad(n=2)", Query: q, Value: sampleValue(t)}); err != nil {
		t.Fatal(err)
	}
	k := store.NewKey("nsquad(n=2)", q)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := d.Get(k); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 14 {
		t.Errorf("a layout-2 Get allocates %.1f objects, want ≤ 14", avg)
	}
}

// BenchmarkStoreHit measures one Get of a stored ResultDoc in each
// layout: the v1 JSON envelope and the layout-2 binary frame. The
// value is a realistic compact ResultDoc carrying a timeline.
func BenchmarkStoreHit(b *testing.B) {
	doc := query.ResultDoc{
		Kind: query.KindExpectation, Query: "expectation[General fire all-fire]",
		Value: "6561/10000", Verdict: "holds", WitnessRuns: 81,
		Values: map[string]string{"mu": "6561/10000", "expected": "5904/10000"},
	}
	for t := 0; t < 8; t++ {
		doc.Timeline = append(doc.Timeline, query.TimelinePointDoc{Time: t, Local: "s1:-o0", Belief: "729/1000"})
	}
	val, err := json.Marshal(doc)
	if err != nil {
		b.Fatal(err)
	}
	e := store.Entry{System: "nsquad(n=4,loss=1/10,improved=false)", Query: canonicalQuery(b), Value: val}
	k := store.NewKey(e.System, e.Query)
	for _, layout := range []store.Layout{store.Layout1, store.Layout2} {
		b.Run(layout.String(), func(b *testing.B) {
			d, err := store.OpenDisk(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if layout == store.Layout1 {
				_, err = storetest.WriteV1(d, e)
			} else {
				err = d.Put(e)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := d.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
