package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"pak/internal/query"
	"pak/internal/store"
	"pak/internal/store/storetest"
)

// fuzzDoc builds a deterministic ResultDoc from fuzzed primitives:
// exact rationals derived from the integers, envelopes/estimates/
// error slots toggled by the flags, and raw fuzzed strings in the
// free-text fields so JSON escaping is exercised.
func fuzzDoc(a, b int64, detail, errMsg string, hasEnv, hasEst, hasTL bool, n int) query.ResultDoc {
	if b == 0 {
		b = 1
	}
	rat := big.NewRat(a, b).RatString()
	doc := query.ResultDoc{
		Kind:        query.KindConstraint,
		Query:       fmt.Sprintf("constraint[%d]", n),
		Value:       rat,
		Verdict:     query.Verdict("holds"),
		WitnessRuns: n,
		Detail:      detail,
		Error:       errMsg,
		Values:      map[string]string{"p": rat, "q": big.NewRat(b, abs64(a)+1).RatString()},
		Flags:       map[string]bool{"strict": n%2 == 0, "ciCovered": hasEst},
	}
	if hasEnv {
		doc.Envelope = &query.RangeDoc{
			Min: rat, Max: "1", ArgMin: detail, ArgMax: "loss=1/2",
			Visited: n % 7, Total: 7, Skipped: []string{"loss=0"},
		}
	}
	if hasEst {
		doc.Estimate = &query.EstimateDoc{
			P: rat, Radius: "1/128", Lo: "0", Hi: "1",
			N: n % 100, Samples: n%100 + 1, Seed: a ^ b,
			Eps: "1/10", Delta: "1/100",
		}
	}
	if hasTL {
		doc.Timeline = []query.TimelinePointDoc{
			{Time: 0, Local: detail, Belief: rat, Knows: false},
			{Time: 1, Local: "fired", Belief: "1", Knows: true},
		}
	}
	return doc
}

func abs64(a int64) int64 {
	if a < 0 && a != -1<<63 {
		return -a
	}
	if a == -1<<63 {
		return 1<<63 - 1
	}
	return a
}

// FuzzStoreRoundTrip is satellite coverage for the persistence tier:
// for random ResultDocs (exact rationals, envelopes, estimates, error
// slots) the store must return byte-identical value bytes, the doc
// must survive decode(encode(x)) byte-identically (the property the
// service's hit path leans on when it re-embeds a stored doc in a
// response), and a single flipped byte anywhere in the on-disk entry
// must surface as ErrCorrupt — never as a served answer. Both layouts
// are held to this: the layout-2 entry Put writes, and the v1 JSON
// envelope a store directory written before layout 2 still holds.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add(int64(2), int64(3), "all fire", "", true, false, false, 3, uint16(0))
	f.Add(int64(-7), int64(11), "loss=1/10", "core: unknown agent", false, true, true, 0, uint16(97))
	f.Add(int64(0), int64(1), `esc"ape<&>`, "", true, true, false, -1, uint16(255))

	canonical := canonicalQuery(f)

	f.Fuzz(func(t *testing.T, a, b int64, detail, errMsg string, hasEnv, hasEst, hasTL bool, n int, flip uint16) {
		// Every real ResultDoc string originates from parsed JSON or an
		// internal rendering, so it is valid UTF-8 by construction;
		// json.Marshal is not byte-stable on invalid UTF-8 (it escapes
		// to �, which decodes to a literal replacement char), so
		// hold the fuzz corpus to the same invariant the code has.
		detail = strings.ToValidUTF8(detail, "�")
		errMsg = strings.ToValidUTF8(errMsg, "�")
		doc := fuzzDoc(a, b, detail, errMsg, hasEnv, hasEst, hasTL, n)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("marshal doc: %v", err)
		}

		// decode(encode(x)) is byte-identical: the service's hit path
		// re-marshals a decoded stored doc into the response, so any
		// lossy field would silently break wire byte-identity.
		var back query.ResultDoc
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("unmarshal doc: %v", err)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal doc: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("decode(encode(x)) drifted:\n in: %s\nout: %s", enc, enc2)
		}

		dir := t.TempDir()
		d, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		sys := "nsquad(n=2,improved=false)"
		if err := d.Put(store.Entry{System: sys, Query: canonical, Value: enc}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		k := store.NewKey(sys, canonical)
		got, err := d.Get(k)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("stored value drifted:\n in: %s\nout: %s", enc, got)
		}

		flipServesNothing(t, d, k, flip, store.Layout2)

		// The same entry as a v1 envelope: read back to the same value
		// bytes, and refused after a flipped byte.
		d1, err := store.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := storetest.WriteV1(d1, store.Entry{System: sys, Query: canonical, Value: enc}); err != nil {
			t.Fatal(err)
		}
		got, err = d1.Get(k)
		if err != nil {
			t.Fatalf("Get(v1): %v", err)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("v1 value drifted:\n in: %s\nout: %s", enc, got)
		}
		flipServesNothing(t, d1, k, flip, store.Layout1)
	})
}

// flipServesNothing checks that k's file holds the wanted layout, then
// flips exactly one bit of it: the integrity check must refuse to serve
// the entry, whatever byte the flip landed on.
func flipServesNothing(t *testing.T, d *store.Disk, k store.Key, flip uint16, want store.Layout) {
	t.Helper()
	if _, layout, err := d.Read(k); err != nil || layout != want {
		t.Fatalf("Read = %v, %v; want a clean %v entry", layout, err, want)
	}
	data, err := os.ReadFile(d.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	data[int(flip)%len(data)] ^= 0x01
	if err := os.WriteFile(d.Path(k), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if served, err := d.Get(k); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("%v: flipped byte %d of %d served anyway: err=%v value=%s",
			want, int(flip)%len(data), len(data), err, served)
	}
}

// FuzzDiskEntryBytes files arbitrary bytes at one fixed address: short
// files, truncated or foreign headers, and length fields that are huge
// or that overflow when summed. Get must never panic, and must not
// size anything by what a header claims. An entry is served only when
// Read yields coordinates that re-derive the address it sits at, and
// then both report the same value bytes.
func FuzzDiskEntryBytes(f *testing.F) {
	canonical := canonicalQuery(f)
	sys := "nsquad(n=2,improved=false)"
	entry := store.Entry{System: sys, Query: canonical, Value: sampleValue(f)}
	k := store.NewKey(sys, canonical)

	// Seeds: a valid entry in each layout, and layout-2 headers whose
	// lengths are maximal or wrap a 32-bit sum.
	seed, err := store.OpenDisk(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Put(entry); err != nil {
		f.Fatal(err)
	}
	layout2, err := os.ReadFile(seed.Path(k))
	if err != nil {
		f.Fatal(err)
	}
	v1, err := storetest.EncodeV1(entry)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(layout2)
	f.Add(v1)
	f.Add([]byte{})
	f.Add([]byte("\x00pakst2\n"))
	huge := append([]byte("\x00pakst2\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	f.Add(append(huge, make([]byte, 32)...))
	wrap := append([]byte("\x00pakst2\n"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0, 0, 0, 0)
	f.Add(append(wrap, make([]byte, 32)...))

	// One directory per fuzzing process: its inputs run one at a time,
	// each overwriting the entry file.
	d, err := store.OpenDisk(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(d.Path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := d.Get(k)
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("Get = %v, want a served entry or ErrCorrupt", err)
			}
			return
		}
		e, _, err := d.Read(k)
		if err != nil {
			t.Fatalf("Get served what Read refuses: %v", err)
		}
		if store.NewKey(e.System, e.Query) != k {
			t.Fatalf("served an entry whose coordinates (%q, %s) do not derive %s", e.System, e.Query, k)
		}
		if !bytes.Equal(got, e.Value) {
			t.Fatalf("Get and Read disagree on the value: %s vs %s", got, e.Value)
		}
	})
}

// FuzzPutAcceptsWhatV1Accepted pins Put's input contract to the v1
// backend's: v1 Put accepted an entry exactly when its JSON envelope
// encoded and read back at the entry's own address, and Put must
// accept exactly those entries and serve back their value bytes.
func FuzzPutAcceptsWhatV1Accepted(f *testing.F) {
	canonical := canonicalQuery(f)
	value := sampleValue(f)
	f.Add("nsquad(n=2)", canonical, value)
	f.Add("nsquad(n=2)", []byte("{\n  \"kind\": \"constraint\"\n}"), value)
	f.Add("nsquad(n=2)", canonical, []byte(`{"value": "1"}`))
	f.Add("a<b", []byte(`"<&>"`), []byte(`"\u003c"`))
	f.Add("\xff", canonical, value)
	f.Add("sys", []byte(nil), []byte("null"))
	f.Add("sys", []byte("null"), []byte{})
	f.Add("sys", canonical, []byte("\"\xe2\x80\xa8\""))

	f.Fuzz(func(t *testing.T, sys string, q, val []byte) {
		e := store.Entry{System: sys, Query: q, Value: val}
		d1, err := store.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		k, err := storetest.WriteV1(d1, e)
		v1Accepts := err == nil
		if v1Accepts {
			_, err = d1.Get(k)
			v1Accepts = err == nil
		}

		d2, err := store.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		putErr := d2.Put(e)
		if (putErr == nil) != v1Accepts {
			t.Fatalf("Put(%q, %q, %q) = %v, but v1 accepted=%v", sys, q, val, putErr, v1Accepts)
		}
		if putErr != nil {
			return
		}
		got, err := d2.Get(k)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("Get after Put = %q, %v; want %q", got, err, val)
		}
	})
}
