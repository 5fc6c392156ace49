package main

// Response verification. Replies are decoded with the benchmark's own
// minimal structs, as an external client would, and every answer is
// compared per slot, as compact JSON bytes, with a reference the
// library computed in-process outside the timed window. Streams are
// checked for slot coverage and per-slot bytes, never for frame order:
// completion order is the stream's documented contract.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"pak/internal/query"
)

// slotKey addresses one answer: the system's position in the request,
// the query's position in its batch, and the stage ("approx", "exact",
// or "" outside the approximate tier).
type slotKey struct {
	system, index int
	stage         string
}

func (k slotKey) String() string {
	if k.stage == "" {
		return fmt.Sprintf("[%d][%d]", k.system, k.index)
	}
	return fmt.Sprintf("[%d][%d]/%s", k.system, k.index, k.stage)
}

// slots maps each answer to its compact ResultDoc bytes.
type slots map[slotKey][]byte

// docBytes renders a library result as the wire's compact bytes.
func docBytes(res query.Result) []byte {
	data, err := json.Marshal(query.DocOf(res))
	if err != nil {
		// ResultDoc holds only strings, ints, bools and maps of them.
		panic(err)
	}
	return data
}

func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// evalWire is the buffered /v1/eval body.
type evalWire struct {
	Results []struct {
		Canonical string            `json:"canonical"`
		Results   []json.RawMessage `json:"results"`
	} `json:"results"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// frameWire is the superset of the eval and envelope stream lines.
type frameWire struct {
	Frame    string          `json:"frame"`
	System   int             `json:"system"`
	Index    int             `json:"index"`
	Stage    string          `json:"stage"`
	Spec     string          `json:"spec"`
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Envelope json.RawMessage `json:"envelope"`
}

// parseEval decodes a 200 /v1/eval or /v1/eval/stream reply into its
// slots. A stream must close with exactly one "complete" status frame
// and may not answer a slot twice.
func parseEval(status int, body []byte, stream bool) (slots, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	got := make(slots)
	if !stream {
		var w evalWire
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, fmt.Errorf("malformed body: %w", err)
		}
		if w.Status != "" {
			return nil, fmt.Errorf("request ended %q: %s", w.Status, w.Error)
		}
		for i, sys := range w.Results {
			for j, raw := range sys.Results {
				c, err := compact(raw)
				if err != nil {
					return nil, err
				}
				got[slotKey{i, j, ""}] = c
			}
		}
		return got, nil
	}
	err := eachFrame(body, func(f *frameWire) error {
		k := slotKey{f.System, f.Index, f.Stage}
		if _, dup := got[k]; dup {
			return fmt.Errorf("slot %v answered twice", k)
		}
		c, err := compact(f.Result)
		if err != nil {
			return err
		}
		got[k] = c
		return nil
	})
	return got, err
}

// eachFrame walks an NDJSON stream: result frames go to fn, and the
// stream must end with one "complete" status frame.
func eachFrame(body []byte, fn func(*frameWire) error) error {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	for n, line := range lines {
		var f frameWire
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("line %d is not a JSON frame: %w", n, err)
		}
		switch f.Frame {
		case "result":
			if n == len(lines)-1 {
				return fmt.Errorf("stream has no terminal status frame")
			}
			if err := fn(&f); err != nil {
				return err
			}
		case "status":
			if n != len(lines)-1 {
				return fmt.Errorf("line %d follows the terminal status frame", n+1)
			}
			if f.Status != "complete" {
				return fmt.Errorf("stream ended %q: %s", f.Status, f.Error)
			}
		default:
			return fmt.Errorf("line %d has frame kind %q", n, f.Frame)
		}
	}
	return nil
}

// compareSlots requires got to cover exactly want's slots with
// identical bytes.
func compareSlots(got, want slots) error {
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("slot %v missing", k)
		}
		if !bytes.Equal(g, w) {
			return fmt.Errorf("slot %v: got %.300s, want %.300s", k, g, w)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for k := range got {
			if _, ok := want[k]; !ok {
				extra = append(extra, k.String())
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("unexpected slots %s", strings.Join(extra, ","))
	}
	return nil
}

// verifiedCache remembers, per repeated body, the reply bytes already
// proven equal to the reference, so later replies verify with a byte
// comparison instead of a full decode. Stream replies are compared as
// sorted line sets, since frame order is free. Each group is filled
// once, during set-up, before clients share it.
type verifiedCache struct {
	want  []slots
	proof [][]byte
}

func newVerifiedCache(want []slots) *verifiedCache {
	return &verifiedCache{want: want, proof: make([][]byte, len(want))}
}

// normal renders a reply in its order-free comparable form.
func normal(body []byte, stream bool) []byte {
	if !stream {
		return body
	}
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return bytes.Join(lines, []byte("\n"))
}

// prove fully verifies one reply for group g and records it as the
// group's proof.
func (c *verifiedCache) prove(g, status int, body []byte, stream bool) error {
	got, err := parseEval(status, body, stream)
	if err != nil {
		return err
	}
	if err := compareSlots(got, c.want[g]); err != nil {
		return err
	}
	c.proof[g] = normal(body, stream)
	return nil
}

// check verifies a reply against group g's proof, falling back to a
// full per-slot comparison when the bytes differ.
func (c *verifiedCache) check(g, status int, body []byte, stream bool) error {
	if status == http.StatusOK && c.proof[g] != nil && bytes.Equal(normal(body, stream), c.proof[g]) {
		return nil
	}
	got, err := parseEval(status, body, stream)
	if err != nil {
		return err
	}
	return compareSlots(got, c.want[g])
}

// envelopeReply is an envelope answer in order-free form.
type envelopeReply struct {
	specs    []string
	results  [][]byte
	envelope []byte
}

// envelopeWire is the buffered /v1/envelope body.
type envelopeWire struct {
	Envelope    json.RawMessage `json:"envelope"`
	Assignments []struct {
		Spec   string          `json:"spec"`
		Result json.RawMessage `json:"result"`
	} `json:"assignments"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// parseEnvelope decodes a 200 envelope reply (buffered or streamed)
// with n assignments. A stream must answer each index exactly once and
// close "complete"; its final envelope is the terminal frame's.
func parseEnvelope(status int, body []byte, stream bool, n int) (envelopeReply, error) {
	rep := envelopeReply{specs: make([]string, n), results: make([][]byte, n)}
	if status != http.StatusOK {
		return rep, fmt.Errorf("status %d: %.200s", status, body)
	}
	var err error
	if !stream {
		var w envelopeWire
		if err := json.Unmarshal(body, &w); err != nil {
			return rep, fmt.Errorf("malformed body: %w", err)
		}
		if w.Status != "" {
			return rep, fmt.Errorf("sweep ended %q: %s", w.Status, w.Error)
		}
		if len(w.Assignments) != n {
			return rep, fmt.Errorf("%d assignments, want %d", len(w.Assignments), n)
		}
		for i, a := range w.Assignments {
			rep.specs[i] = a.Spec
			if rep.results[i], err = compact(a.Result); err != nil {
				return rep, err
			}
		}
		rep.envelope, err = compact(w.Envelope)
		return rep, err
	}
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	err = eachFrame(body, func(f *frameWire) error {
		if f.Index < 0 || f.Index >= n {
			return fmt.Errorf("assignment index %d outside [0,%d)", f.Index, n)
		}
		if rep.results[f.Index] != nil {
			return fmt.Errorf("assignment %d answered twice", f.Index)
		}
		rep.specs[f.Index] = f.Spec
		c, err := compact(f.Result)
		rep.results[f.Index] = c
		return err
	})
	if err != nil {
		return rep, err
	}
	for i, r := range rep.results {
		if r == nil {
			return rep, fmt.Errorf("assignment %d missing", i)
		}
	}
	var term frameWire
	if err := json.Unmarshal(last, &term); err != nil {
		return rep, err
	}
	rep.envelope, err = compact(term.Envelope)
	return rep, err
}

// compareEnvelope requires byte-identical assignments and envelope.
func compareEnvelope(got, want envelopeReply) error {
	for i := range want.results {
		if got.specs[i] != want.specs[i] {
			return fmt.Errorf("assignment %d spec %q, want %q", i, got.specs[i], want.specs[i])
		}
		if !bytes.Equal(got.results[i], want.results[i]) {
			return fmt.Errorf("assignment %d: got %.300s, want %.300s", i, got.results[i], want.results[i])
		}
	}
	if !bytes.Equal(got.envelope, want.envelope) {
		return fmt.Errorf("envelope: got %s, want %s", got.envelope, want.envelope)
	}
	return nil
}

// resultValue reads the headline value and error of a compact doc.
func resultValue(doc []byte) (value, errMsg string) {
	var d struct {
		Value string `json:"value"`
		Error string `json:"error"`
	}
	if json.Unmarshal(doc, &d) != nil {
		return "", "undecodable result"
	}
	return d.Value, d.Error
}
