// The crash-safe disk backend. One entry is one file, <dir>/<key>.json
// (the suffix is historical: layout-1 entries were JSON documents, and
// keeping the name means a Get opens exactly one path whatever layout
// the file holds). Put writes layout 2, a checksummed binary frame:
//
//	offset  size    section
//	0       8       magic "\x00pakst2\n"
//	8       4       len(system), big-endian uint32
//	12      4       len(query), big-endian uint32
//	16      4       len(value), big-endian uint32
//	20      len(S)  system: the canonical system spec
//	        len(Q)  query: the canonical query document
//	        len(V)  value: the stored payload (compact ResultDoc JSON)
//	        32      SHA-256 over every byte before it
//
// The magic's first byte is NUL, which cannot begin a JSON document,
// so the first byte of a file names its layout. A layout-2 entry is
// served only if the three lengths add up to the file size exactly,
// the trailer hash matches, and the coordinates re-derive the file's
// own address. No JSON parser runs in a layout-2 Get.
//
// Layout 1, the v1 JSON envelope, is still read (never written):
//
//	{"version":1,"system":"nsquad(n=2,...)","query":{...},
//	 "sha256":"<hex of value bytes>","value":{...ResultDoc...}}
//
// It is verified as before: the envelope parses, its version is known,
// the coordinates re-derive the file's own address, and the value
// re-hashes to the recorded sum. Both layouts share the key derivation
// (keyVersion stays "pakstore/v1"), so a v1 store directory serves
// identical bytes at identical addresses without migration; pakstore
// -migrate rewrites its entries as layout 2.
//
// Exact rationals travel inside the value as RatStrings — an entry
// never holds a float. Writes are temp-then-rename: the entry lands
// under a hidden temp name, is fsynced, and only then renamed onto its
// content address, so a crash mid-write leaves either the old entry or
// no entry — never a torn one. Any failed check is ErrCorrupt — served
// answers are exactly the bytes Put stored, or nothing.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode/utf8"
)

// envelopeVersion is the layout-1 envelope's format version; readers
// reject anything else as corrupt rather than guessing.
const envelopeVersion = 1

// entrySuffix names entry files; everything else in the directory is
// ignored (temp files, user droppings).
const entrySuffix = ".json"

// entryMagic opens every layout-2 entry. Its first byte, NUL, is
// neither JSON whitespace nor a JSON value's first byte.
const entryMagic = "\x00pakst2\n"

// headerLen is the layout-2 fixed header: the magic and three uint32
// lengths.
const headerLen = len(entryMagic) + 3*4

// Layout names an entry file's on-disk format.
type Layout int

const (
	// Layout1 is the v1 JSON envelope: read, never written.
	Layout1 Layout = 1
	// Layout2 is the checksummed binary frame Put writes.
	Layout2 Layout = 2
)

// String renders the layout for pakstore: "layout1" or "layout2".
func (l Layout) String() string { return fmt.Sprintf("layout%d", int(l)) }

// envelope is the layout-1 JSON form of an Entry.
type envelope struct {
	Version int             `json:"version"`
	System  string          `json:"system"`
	Query   json.RawMessage `json:"query"`
	Sum     string          `json:"sha256"`
	Value   json.RawMessage `json:"value"`
}

// Disk is the crash-safe file backend.
type Disk struct {
	dir string
}

// OpenDisk opens (creating if needed) a disk store rooted at dir.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Path returns the entry file a key addresses (whether or not it
// exists yet).
func (d *Disk) Path(k Key) string {
	return filepath.Join(d.dir, string(k)+entrySuffix)
}

// Get implements Store.
func (d *Disk) Get(k Key) ([]byte, error) {
	e, _, err := d.Read(k)
	return e.Value, err
}

// Read returns one entry with its coordinates, integrity-checked, and
// the layout its file holds — the Get, pakstore -list/-verify and
// -migrate primitive. The layout is reported for corrupt entries too
// (0 when the file cannot be read).
func (d *Disk) Read(k Key) (Entry, Layout, error) {
	if !k.valid() {
		return Entry{}, 0, errBadKey(k)
	}
	data, err := os.ReadFile(d.Path(k))
	if os.IsNotExist(err) {
		return Entry{}, 0, ErrNotFound
	}
	if err != nil {
		return Entry{}, 0, fmt.Errorf("store: read %s: %w", k, err)
	}
	if len(data) > 0 && data[0] == entryMagic[0] {
		e, err := decodeLayout2(k, data)
		return e, Layout2, err
	}
	env, err := decodeEnvelope(k, data)
	if err != nil {
		return Entry{}, Layout1, err
	}
	return Entry{System: env.System, Query: env.Query, Value: env.Value}, Layout1, nil
}

// decodeLayout2 integrity-checks one layout-2 file's bytes against the
// address it was read from. A flipped byte anywhere breaks a check: in
// the header or the body it breaks the trailer hash (a length field
// first, since a changed length no longer adds up), in the trailer the
// hash itself. The address check then binds the coordinates to the
// file name, so a valid entry copied to another address is refused
// too. Every failure wraps ErrCorrupt.
func decodeLayout2(k Key, data []byte) (Entry, error) {
	if len(data) < headerLen+sha256.Size || string(data[:len(entryMagic)]) != entryMagic {
		return Entry{}, errCorrupt(k, "truncated or unknown layout-2 header")
	}
	var n [3]int
	// Three uint32 lengths plus the fixed parts cannot overflow a
	// uint64, whatever the header claims.
	total := uint64(headerLen + sha256.Size)
	for i := range n {
		l := binary.BigEndian.Uint32(data[len(entryMagic)+4*i:])
		total += uint64(l)
		n[i] = int(l)
	}
	if total != uint64(len(data)) {
		return Entry{}, errCorrupt(k, fmt.Sprintf("section lengths add up to %d bytes, file has %d", total, len(data)))
	}
	body := data[:len(data)-sha256.Size]
	if sha256.Sum256(body) != [sha256.Size]byte(data[len(body):]) {
		return Entry{}, errCorrupt(k, "entry bytes do not match their trailing hash")
	}
	q := headerLen + n[0]
	v := q + n[1]
	e := Entry{
		System: string(body[headerLen:q]),
		Query:  body[q:v:v],
		Value:  body[v:len(body):len(body)],
	}
	if derived := NewKey(e.System, e.Query); derived != k {
		return Entry{}, errCorrupt(k, "coordinates derive address "+string(derived))
	}
	return e, nil
}

// encodeLayout2 renders an entry as a layout-2 file (the caller has
// checked that every section fits a uint32 length).
func encodeLayout2(e Entry) []byte {
	buf := make([]byte, 0, headerLen+len(e.System)+len(e.Query)+len(e.Value)+sha256.Size)
	buf = append(buf, entryMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.System)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Query)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Value)))
	buf = append(buf, e.System...)
	buf = append(buf, e.Query...)
	buf = append(buf, e.Value...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decodeEnvelope parses and integrity-checks one layout-1 file's bytes
// against the address it was read from. Every failure mode — parse,
// version, address, hash — wraps ErrCorrupt: a flipped byte anywhere
// in the file necessarily breaks one of these checks, because the
// envelope is pure JSON with no ignored regions.
func decodeEnvelope(k Key, data []byte) (envelope, error) {
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return envelope{}, errCorrupt(k, "envelope does not parse: "+err.Error())
	}
	if e.Version != envelopeVersion {
		return envelope{}, errCorrupt(k, fmt.Sprintf("envelope version %d, want %d", e.Version, envelopeVersion))
	}
	if derived := NewKey(e.System, e.Query); derived != k {
		return envelope{}, errCorrupt(k, "coordinates derive address "+string(derived))
	}
	sum := sha256.Sum256(e.Value)
	if hex.EncodeToString(sum[:]) != e.Sum {
		return envelope{}, errCorrupt(k, "value bytes do not match their recorded hash")
	}
	return e, nil
}

// canonicalJSON reports whether b is valid JSON already in the form
// encoding/json gives an embedded json.RawMessage: compact and
// HTML-escaped. Layout 1 embedded the query and the value that way, so
// its Put accepted exactly the coordinates and values this admits;
// layout 2 keeps the same contract.
func canonicalJSON(b []byte) bool {
	out, err := json.Marshal(json.RawMessage(b))
	return err == nil && bytes.Equal(out, b)
}

// Put implements Store: write-temp-then-rename with an fsync in
// between, so the content address never names a torn file.
//
// Put refuses what a stored entry could never be read back as: query
// bytes or a value that are not canonical JSON (see canonicalJSON), a
// system spec that is not valid UTF-8, and a section longer than a
// uint32 length can say.
func (d *Disk) Put(e Entry) error {
	k := NewKey(e.System, e.Query)
	if !utf8.ValidString(e.System) || !canonicalJSON(e.Query) {
		return fmt.Errorf("store: %s: coordinates are not canonical JSON (use query.MarshalCanonical)", k)
	}
	if !canonicalJSON(e.Value) {
		return fmt.Errorf("store: %s: value is not compact JSON", k)
	}
	for _, n := range []int{len(e.System), len(e.Query), len(e.Value)} {
		if uint64(n) > math.MaxUint32 {
			return fmt.Errorf("store: %s: a %d-byte section does not fit a layout-2 entry", k, n)
		}
	}
	data := encodeLayout2(e)

	tmp, err := os.CreateTemp(d.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", k, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", k, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", k, err)
	}
	if err := os.Rename(tmp.Name(), d.Path(k)); err != nil {
		return fmt.Errorf("store: rename %s: %w", k, err)
	}
	return nil
}

// Len implements Store.
func (d *Disk) Len() (int, error) {
	ks, err := d.Keys()
	return len(ks), err
}

// Keys lists every stored address in lexicographic order (a stable
// order for pakstore -list and the verify sweep).
func (d *Disk) Keys() ([]Key, error) {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Key
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		k := Key(strings.TrimSuffix(name, entrySuffix))
		if !k.valid() {
			continue
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Verify integrity-checks every entry, returning the keys that failed
// (empty = a clean store). The error reports only sweep-level
// failures (an unreadable directory), not per-entry corruption.
func (d *Disk) Verify() ([]Key, error) {
	ks, err := d.Keys()
	if err != nil {
		return nil, err
	}
	var bad []Key
	for _, k := range ks {
		if _, _, err := d.Read(k); err != nil {
			bad = append(bad, k)
		}
	}
	return bad, nil
}

// GC deletes entries beyond the keep most recently modified ones
// (keep ≤ 0 empties the store) and returns how many were removed.
// Corrupt entries count like any other — gc is a size policy, verify
// is the integrity sweep.
func (d *Disk) GC(keep int) (int, error) {
	ks, err := d.Keys()
	if err != nil {
		return 0, err
	}
	type aged struct {
		k   Key
		mod int64
	}
	entries := make([]aged, 0, len(ks))
	for _, k := range ks {
		fi, err := os.Stat(d.Path(k))
		if err != nil {
			continue // raced with a concurrent gc; nothing to remove
		}
		entries = append(entries, aged{k: k, mod: fi.ModTime().UnixNano()})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mod != entries[j].mod {
			return entries[i].mod > entries[j].mod // newest first
		}
		return entries[i].k < entries[j].k
	})
	removed := 0
	for i := keep; i < len(entries); i++ {
		if i < 0 {
			continue
		}
		if err := os.Remove(d.Path(entries[i].k)); err == nil {
			removed++
		}
	}
	return removed, nil
}
