// Package storetest writes store fixtures that the store package itself
// no longer writes: layout-1 (v1 JSON envelope) entries, byte for byte
// as the v1 disk backend's Put filed them. Tests use it to prove that
// v1 store directories stay readable and that pakstore -migrate
// rewrites them faithfully.
package storetest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"pak/internal/store"
)

// v1Envelope is the layout-1 on-disk JSON form, field order included.
type v1Envelope struct {
	Version int             `json:"version"`
	System  string          `json:"system"`
	Query   json.RawMessage `json:"query"`
	Sum     string          `json:"sha256"`
	Value   json.RawMessage `json:"value"`
}

// EncodeV1 renders an entry as the v1 Put did: a JSON envelope whose
// sha256 field is the hex digest of the value bytes. It fails where
// the v1 encoder failed (query or value bytes that are not JSON).
func EncodeV1(e store.Entry) ([]byte, error) {
	sum := sha256.Sum256(e.Value)
	return json.Marshal(v1Envelope{
		Version: 1,
		System:  e.System,
		Query:   json.RawMessage(e.Query),
		Sum:     hex.EncodeToString(sum[:]),
		Value:   json.RawMessage(e.Value),
	})
}

// WriteV1 files e into d as a layout-1 entry at NewKey(e.System,
// e.Query) and returns that key. Unlike the v1 Put it does not check
// that the entry reads back: a test that wants to know asks d.
func WriteV1(d *store.Disk, e store.Entry) (store.Key, error) {
	k := store.NewKey(e.System, e.Query)
	data, err := EncodeV1(e)
	if err != nil {
		return k, fmt.Errorf("storetest: encode %s: %w", k, err)
	}
	if err := os.WriteFile(d.Path(k), data, 0o644); err != nil {
		return k, fmt.Errorf("storetest: %w", err)
	}
	return k, nil
}
