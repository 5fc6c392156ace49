// Package store is the persistent result tier: a content-addressed
// map from (canonical system spec × canonical query document) to the
// exact ResultDoc bytes the service would answer, so a pakd restart
// serves stored answers byte-identically instead of recomputing them
// — ROADMAP open item 2's "restart without recomputation".
//
// The key is a SHA-256 over a versioned preimage of the two canonical
// specs. Both components are already canonical by construction: the
// system side is the engine-cache key (registry Args.Canonical —
// declared parameter order, defaults filled), and the query side is
// query.Marshal's deterministic rendering. Two requests that would
// share an engine and a query therefore share a key, and nothing else
// collides short of SHA-256 itself.
//
// Values are opaque bytes to this package; the service stores compact
// ResultDoc JSON with every rational as an exact RatString — floats
// never touch an entry, so a stored answer re-parses with zero
// drift and re-serializes byte-identically (the round-trip fuzz test
// pins this).
//
// Integrity is verify-don't-trust: every Get re-hashes what it read
// and refuses to serve on any mismatch, returning an error wrapping
// ErrCorrupt — a flipped bit on disk surfaces as a loud sentinel (and
// a counter), never as a silently wrong answer. The Memory backend
// keeps the same discipline so the service logic is backend-blind.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
)

// keyVersion versions the key derivation itself: bump it and every
// address changes, so a semantic change to the canonical forms can
// never alias an old entry.
const keyVersion = "pakstore/v1"

// Key is the content address of one stored result: SHA-256 over the
// versioned (system, query) preimage, rendered as lowercase hex.
type Key string

// NewKey derives the content address for a canonical system spec and
// a canonical query document. The two components are length-prefixed
// by a NUL separator (neither canonical form may contain NUL), so
// ("ab","c") and ("a","bc") cannot collide.
func NewKey(systemSpec string, queryDoc []byte) Key {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte{0})
	h.Write([]byte(systemSpec))
	h.Write([]byte{0})
	h.Write(queryDoc)
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// valid reports whether k has the shape NewKey produces (64 lowercase
// hex digits); the disk backend refuses anything else as a path
// component.
func (k Key) valid() bool {
	if len(k) != sha256.Size*2 {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ErrNotFound reports a key with no stored entry — the ordinary miss,
// answered by evaluating and (usually) writing back.
var ErrNotFound = errors.New("store: not found")

// ErrCorrupt is the loud integrity sentinel: the entry exists but its
// bytes do not hash to what was recorded (or its file does not
// parse, or it sits at the wrong address). A corrupt entry is NEVER
// served; callers count it and fall through to recomputation.
var ErrCorrupt = errors.New("store: corrupt entry")

// ErrBadKey reports a key that is not a NewKey-shaped address.
var ErrBadKey = errors.New("store: malformed key")

// Entry is one stored result as the backends see it: the canonical
// coordinates it was filed under plus the value bytes. Backends
// persist the coordinates beside the value so an entry is
// self-describing (pakstore -list renders them) and so integrity
// checks can confirm the entry sits at the address its coordinates
// derive.
type Entry struct {
	// System is the canonical system spec (the engine-cache key).
	System string
	// Query is the canonical query document.
	Query []byte
	// Value is the stored payload (compact ResultDoc JSON).
	Value []byte
}

// Store is a content-addressed result store. Implementations must be
// safe for concurrent use.
type Store interface {
	// Get returns the entry's value bytes, ErrNotFound on a miss, or an
	// error wrapping ErrCorrupt when the entry exists but fails its
	// integrity check.
	Get(k Key) ([]byte, error)
	// Put files an entry under NewKey(e.System, e.Query). Re-putting an
	// existing key overwrites (the content address makes the value a
	// pure function of the coordinates, so overwrites are idempotent in
	// the absence of bugs).
	Put(e Entry) error
	// Len counts stored entries (corrupt ones included — they occupy
	// their address until gc or overwrite).
	Len() (int, error)
}

// Memory is the in-process backend: a mutex-guarded map with the same
// hash-on-read discipline as the disk backend, so tests and embedders
// exercise identical service logic.
type Memory struct {
	mu      sync.Mutex
	entries map[Key]memEntry
}

type memEntry struct {
	value []byte
	sum   [sha256.Size]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{entries: make(map[Key]memEntry)}
}

// Get implements Store. The stored bytes are re-hashed on every read:
// even in-process, a torn or overwritten buffer surfaces as ErrCorrupt
// rather than as a wrong answer.
func (m *Memory) Get(k Key) ([]byte, error) {
	if !k.valid() {
		return nil, errBadKey(k)
	}
	m.mu.Lock()
	e, ok := m.entries[k]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if sha256.Sum256(e.value) != e.sum {
		return nil, errCorrupt(k, "value bytes do not match their recorded hash")
	}
	return append([]byte(nil), e.value...), nil
}

// Put implements Store.
func (m *Memory) Put(e Entry) error {
	k := NewKey(e.System, e.Query)
	val := append([]byte(nil), e.Value...)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[k] = memEntry{value: val, sum: sha256.Sum256(val)}
	return nil
}

// Len implements Store.
func (m *Memory) Len() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), nil
}

// Corrupt flips one bit of the stored value in place (test hook: the
// service's corrupt-counter path needs a corrupt entry on demand, and
// only the Memory backend can fake one without a filesystem).
func (m *Memory) Corrupt(k Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if !ok || len(e.value) == 0 {
		return false
	}
	e.value = append([]byte(nil), e.value...)
	e.value[0] ^= 0x01
	m.entries[k] = e
	return true
}

func errCorrupt(k Key, why string) error {
	return &keyError{key: k, why: why, sentinel: ErrCorrupt}
}

func errBadKey(k Key) error {
	return &keyError{key: k, why: "not a content address", sentinel: ErrBadKey}
}

// keyError attaches the offending key to a sentinel.
type keyError struct {
	key      Key
	why      string
	sentinel error
}

func (e *keyError) Error() string {
	return e.sentinel.Error() + " " + string(e.key) + ": " + e.why
}

func (e *keyError) Unwrap() error { return e.sentinel }
