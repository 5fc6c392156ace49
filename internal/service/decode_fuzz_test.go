package service

// Fuzzers for the HTTP request decoders. Both decoders run before any
// engine exists, so the fuzzers call them directly on a recorder: no
// listener, no build. The invariant is the decoders' contract: never
// panic, and either accept the request with nothing written, or
// reject it with a 4xx whose body is one errorDoc.
//
//	go test -run '^$' -fuzz '^FuzzDecodeEvalRequest$' ./internal/service
//	go test -run '^$' -fuzz '^FuzzDecodeEnvelopeRequest$' ./internal/service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzBatch is a small serializable query batch shared by the seeds.
const fuzzBatch = `[{"kind":"constraint","fact":{"op":"does","agent":"General","action":"fire"},"agent":"General","action":"fire"}]`

// fuzzQuery is fuzzBatch's single query document.
const fuzzQuery = `{"kind":"constraint","fact":{"op":"does","agent":"General","action":"fire"},"agent":"General","action":"fire"}`

// evalSeeds are request bodies from the eval goldens, the unknown
// "backend" field among them.
var evalSeeds = []string{
	`{"systems": ["nsquad(2)"], "queries": [], "backend": "lp"}`,
	`{"systems": ["nsquad(2)"], "queries": ` + fuzzBatch + `, "parallelism": 1}`,
	`{"systems": ["fsquad", "nsquad(3)"], "queries": ` + fuzzBatch + `}`,
	`{"requests": [{"system": "nsquad(2)", "queries": ` + fuzzBatch + `}]}`,
	`{"systems": ["nsquad(2)"], "queries": ` + fuzzBatch + `, "approx": {"samples": 64, "seed": 5, "only": true}}`,
	`{"systems": ["nsquad(2)"], "queries": ` + fuzzBatch + `, "approx": {"eps": "1/10", "delta": "1/100", "seed": 11}}`,
	`{"systems": ["nsquad(2)"], "queries": [], "approx": {"eps": "0"}}`,
	`{"systems": [`,
	`{"bogus": 1}`,
	`{"systems":["fsquad"],"queries":[]} extra`,
	`{}`,
	`{"systems": ["nsquad(2)"]}`,
	`{"systems": ["nosuch"], "queries": []}`,
	`{"systems": ["nsquad(n=zero)"], "queries": []}`,
	`{"systems": ["fsquad(frobnicate=1)"], "queries": []}`,
	`{"systems": ["nsquad(42)"], "queries": []}`,
	`{"systems": ["random(depth=50000,branch=1)"], "queries": []}`,
	`{"systems": ["fsquad(loss=0.` + strings.Repeat("1", 80) + `)"], "queries": []}`,
	`{"systems": ["nsquad(2)"], "queries": [{"kind": "nope"}]}`,
	`{"systems": ["nsquad(2)"], "queries": {"kind": "belief"}}`,
	`{"systems": ["nsquad(2)", "nsquad(3)", "nsquad(4)"], "queries": []}`,
}

// envelopeSeeds are request bodies from the envelope goldens.
var envelopeSeeds = []string{
	`{"space": "sweep(nsquad, loss=0.0..0.5/0.1, n=2)", "query": ` + fuzzQuery + `, "parallelism": 1}`,
	`{"space": "sweep(nsquad, loss=0.0..0.5/0.1, n=2)", "query": ` + fuzzQuery + `, "backend": "lp"}`,
	`{}`,
	`{"space": "sweep(nsquad, loss=0.0..0.5/0.1, n=2)"}`,
	`{"space": "sweep(nsquad, loss=0.0..0.5/0.1, n=2)", "query": {"kind": "nope"}}`,
	`{"space": "nsquad(2)", "query": ` + fuzzQuery + `}`,
	`{"space": "sweep(nosuch,loss=0..1)", "query": ` + fuzzQuery + `}`,
	`{"space": "sweep(nsquad,loss=1..0)", "query": ` + fuzzQuery + `}`,
	`{"space": "sweep(nsquad,n=2,loss=0..1/2/1/10)", "query": ` + fuzzQuery + `}`,
	`{"bogus": 1}`,
}

// checkDecoderReply enforces the decoder contract on one recorded
// reply: acceptance writes nothing, rejection is a 4xx errorDoc.
func checkDecoderReply(t *testing.T, body string, ok bool, rec *httptest.ResponseRecorder) {
	t.Helper()
	if ok {
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted request wrote a body: %q\nrequest: %q", rec.Body.String(), body)
		}
		return
	}
	if rec.Code < 400 || rec.Code > 499 {
		t.Fatalf("rejection status %d, want 4xx: %s\nrequest: %q", rec.Code, rec.Body.String(), body)
	}
	var doc errorDoc
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil || doc.Error == "" {
		t.Fatalf("rejection body is not an errorDoc (%v): %q\nrequest: %q", err, rec.Body.String(), body)
	}
}

// fuzzServer is the decoders' host: default caps, a small body limit
// so oversized inputs stay cheap.
func fuzzServer() *Server { return New(nil, WithMaxBodyBytes(4096)) }

func FuzzDecodeEvalRequest(f *testing.F) {
	for _, s := range evalSeeds {
		f.Add(s)
	}
	srv := fuzzServer()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body))
		_, ok := srv.decodeEvalRequest(rec, req)
		checkDecoderReply(t, body, ok, rec)
	})
}

func FuzzDecodeEnvelopeRequest(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add(s)
	}
	srv := fuzzServer()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/envelope", strings.NewReader(body))
		_, ok := srv.decodeEnvelopeRequest(rec, req)
		checkDecoderReply(t, body, ok, rec)
	})
}
