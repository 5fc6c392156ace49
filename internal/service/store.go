// The persistent result tier: a content-addressed read-through/
// write-behind store in front of evaluation (internal/store wired in
// via WithResultStore / pakd -store-dir).
//
// Addressing. A slot's store key is NewKey(canonical system spec,
// canonical query document) — the engine-cache key crossed with
// query.MarshalCanonical. Both components are canonical, so any two
// requests that would share an engine and a query share an address,
// across restarts and across backends: the enum and LP engines return
// byte-identical documents (the differential harness pins it), so a
// stored answer serves either backend's request and the key carries
// no backend component.
//
// Byte identity. The stored value is the slot's compact ResultDoc
// JSON. On a hit the doc is decoded and re-embedded in the response,
// and because ResultDoc is JSON-lossless (strings, ints, bools, maps
// — FuzzStoreRoundTrip pins decode(encode(x)) byte-identity), the
// response bytes are identical to a fresh evaluation's. Restart
// without recomputation, proven by diffing bytes.
//
// What is persisted. Only deterministic, complete, exact results: a
// stored answer must equal an untimed recompute. Excluded —
//   - any slot of an approx request (estimates are seeded and
//     request-shaped; the whole tier is bypassed, reads included),
//   - error slots (including per-slot deadline errors),
//   - slots finishing under an already-expired/cancelled request
//     context (the request may be truncated; nothing is written),
//   - queries that do not serialize (opaque Go facts have no
//     canonical document, hence no address).
//
// Corruption. A store entry failing its integrity check is counted
// (the "corrupt" stat) and recomputed — never served. A hash-valid
// entry that does not decode as a ResultDoc is treated exactly the
// same way.
package service

import (
	"context"
	"encoding/json"
	"errors"

	"pak/internal/query"
	"pak/internal/store"
)

// WithResultStore installs a persistent result store as a
// read-through/write-behind tier in front of /v1/eval[/stream]
// evaluation. pakd -store-dir wires a disk store through this.
func WithResultStore(st store.Store) Option {
	return func(s *Server) { s.resultStore = st }
}

// StoreStats is the persistent-store section of GET /v1/stats
// (present only when a store is configured).
type StoreStats struct {
	// Len counts stored entries (-1 when the backend cannot say).
	Len int `json:"len"`
	// Hits/Misses/Corrupt classify lookups: served from the store,
	// absent, or present-but-refused by the integrity check. The three
	// are disjoint; their sum is the store-keyable slots looked up.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Corrupt int64 `json:"corrupt"`
	// Writes counts results persisted (successful Puts).
	Writes int64 `json:"writes"`
}

// storeStats snapshots the store counters for /v1/stats.
func (s *Server) storeStats() *StoreStats {
	if s.resultStore == nil {
		return nil
	}
	n, err := s.resultStore.Len()
	if err != nil {
		n = -1
	}
	return &StoreStats{
		Len:     n,
		Hits:    s.storeHits.Load(),
		Misses:  s.storeMisses.Load(),
		Corrupt: s.storeCorrupt.Load(),
		Writes:  s.storeWrites.Load(),
	}
}

// storeLookup is one request's store view: per (system, slot) the
// content address, the canonical query bytes it derives from, and the
// stored doc on a hit.
type storeLookup struct {
	keys [][]store.Key        // "" = slot has no address (opaque query)
	raws [][]json.RawMessage  // canonical query bytes, aligned with keys
	docs [][]*query.ResultDoc // decoded stored docs; nil = miss
}

// lookupStored consults the store for every slot of the plan. It
// returns nil when the tier is off for this request: no store
// configured, or an approx request (estimates are never stored, and a
// stored exact doc would be missing the estimate an approx response
// carries — so approx requests bypass reads too). The top-level batch
// shared by several systems is canonicalized once, not once per
// system.
func (s *Server) lookupStored(plan evalPlan) *storeLookup {
	if s.resultStore == nil || plan.approx != nil {
		return nil
	}
	lk := &storeLookup{
		keys: make([][]store.Key, len(plan.batches)),
		raws: make([][]json.RawMessage, len(plan.batches)),
		docs: make([][]*query.ResultDoc, len(plan.batches)),
	}
	var sharedRaws []json.RawMessage
	for i, batch := range plan.batches {
		shared := i < len(plan.shared) && plan.shared[i]
		if !shared || sharedRaws == nil {
			lk.raws[i] = canonicalDocs(batch)
		} else {
			lk.raws[i] = sharedRaws
		}
		if shared {
			sharedRaws = lk.raws[i]
		}
		lk.keys[i] = make([]store.Key, len(batch))
		lk.docs[i] = make([]*query.ResultDoc, len(batch))
		for j, raw := range lk.raws[i] {
			if raw == nil {
				continue // opaque query: no address, always evaluated
			}
			k := store.NewKey(plan.targets[i].key, raw)
			lk.keys[i][j] = k
			data, err := s.resultStore.Get(k)
			switch {
			case err == nil:
				var doc query.ResultDoc
				if json.Unmarshal(data, &doc) == nil {
					s.storeHits.Add(1)
					lk.docs[i][j] = &doc
					continue
				}
				// Hash-valid but not a ResultDoc: same refusal as a
				// failed integrity check.
				s.storeCorrupt.Add(1)
			case errors.Is(err, store.ErrCorrupt):
				s.storeCorrupt.Add(1)
			default:
				s.storeMisses.Add(1)
			}
		}
	}
	return lk
}

// canonicalDocs renders each query of a batch as its canonical
// document, the query half of a store address; an opaque query, which
// has none, gets nil.
func canonicalDocs(batch []query.Query) []json.RawMessage {
	raws := make([]json.RawMessage, len(batch))
	for j, q := range batch {
		if raw, err := query.MarshalCanonical(q); err == nil {
			raws[j] = raw
		}
	}
	return raws
}

// fullyHit reports whether system i's entire non-empty batch was
// answered from the store — exactly then can its engine build be
// skipped. An EMPTY batch reports false: the classic contract builds
// (and therefore vets) every named system even when there is nothing
// to evaluate, and a batchless probe must keep surfacing builder
// domain errors as 4xx.
func (lk *storeLookup) fullyHit(i int) bool {
	if lk == nil || len(lk.docs[i]) == 0 {
		return false
	}
	for _, d := range lk.docs[i] {
		if d == nil {
			return false
		}
	}
	return true
}

// hit returns the stored doc for a slot (nil outside the tier or on a
// miss).
func (lk *storeLookup) hit(i, j int) *query.ResultDoc {
	if lk == nil {
		return nil
	}
	return lk.docs[i][j]
}

// reducePlan drops store-hit slots from the plan's batches, so
// evaluation (and backend accounting) covers exactly the slots the
// store could not answer. slotMap maps each reduced slot back to its
// original batch index; a nil slotMap means the plan is unreduced
// (identity). Systems whose every slot hit end up with an empty batch
// — the handlers skip their engine builds entirely, which is what
// makes "zero engine rebuilds for stored slots" literal.
func reducePlan(plan evalPlan, lk *storeLookup) (evalPlan, [][]int) {
	if lk == nil {
		return plan, nil
	}
	reduced := plan
	reduced.batches = make([][]query.Query, len(plan.batches))
	slotMap := make([][]int, len(plan.batches))
	for i, batch := range plan.batches {
		for j, q := range batch {
			if lk.docs[i][j] != nil {
				continue
			}
			reduced.batches[i] = append(reduced.batches[i], q)
			slotMap[i] = append(slotMap[i], j)
		}
	}
	return reduced, slotMap
}

// persistResult writes one freshly computed slot back to the store,
// applying the persistence contract: exact requests only (lookup nil
// otherwise), addressable slots only, no error slots, no estimates,
// and nothing once the request context has a cause — a truncated
// request persists nothing, so a stored answer always equals an
// untimed recompute.
func (s *Server) persistResult(ctx context.Context, lk *storeLookup, system string, i, j int, doc query.ResultDoc) {
	if lk == nil || lk.keys[i][j] == "" {
		return
	}
	if doc.Error != "" || doc.Estimate != nil || context.Cause(ctx) != nil {
		return
	}
	val, err := json.Marshal(doc)
	if err != nil {
		return
	}
	if s.resultStore.Put(store.Entry{System: system, Query: lk.raws[i][j], Value: val}) == nil {
		s.storeWrites.Add(1)
	}
}
