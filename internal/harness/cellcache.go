package harness

import (
	"bytes"
	"cmp"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CellCache is the content-addressed on-disk result store behind resumable,
// shardable sweeps and waved's idempotent replies. Each completed cell is
// one record keyed by the SHA-256 of everything that determines its result
// (workload spec, machine and compile configuration, engine-set version),
// so:
//
//   - a -resume run recognizes completed cells across invocations,
//   - -shard k/n runs from separate processes drop their cells into the
//     same directory and a later open merges them (merge-on-read: the
//     aggregate is rebuilt from cells, never from partial tables),
//   - any configuration or engine change produces different keys, never
//     a stale hit.
//
// The directory is a segment log (DESIGN.md §9). A record is one line —
// the JSON cacheEnvelope and a newline — appended with one write(2) to a
// segment file this handle created itself, so two processes on one
// directory never share a file; creating a file is what a store pays for,
// and a segment pays it once per segmentBytes instead of once per result.
// Opening a handle reads every segment's framing into an index, key ->
// (segment, offset, length), the later record winning; a handle sees its
// own puts at once and other handles' records at its next open.
//
// The durability rule: Put returns when its record's write has returned —
// visible to this handle, and safe against this process being killed,
// from then on. A segment is fsynced when it is sealed (at segmentBytes,
// by Prune, by Close) and on Sync, so a machine crash can lose at most the
// unsealed tail. That costs time only: every Get re-validates what it
// reads, so a torn, truncated or bit-rotted record is a miss — the cell
// is recomputed, never trusted — and its recomputed Put supersedes it.
//
// A handle owns no goroutine and one descriptor, its active segment's;
// any other segment is read by open, pread, close. A handle that is never
// closed leaks that descriptor and nothing else.
type CellCache struct {
	dir                 string
	corrupt, gets, hits atomic.Int64

	mu     sync.Mutex // guards everything below
	index  map[string]recLoc
	active string   // name of the segment this handle appends to; "" until a Put needs one
	file   *os.File // its descriptor
	size   int64    // and its length
	stats  CacheStats
}

// recLoc is where a record's line (without its newline) lives.
type recLoc struct {
	seg string
	off int64
	n   int
}

// CacheStats is a snapshot of one handle's counters.
type CacheStats struct {
	Records int `json:"records"` // live index entries
	// Segments and Bytes describe the directory as of the handle's open or
	// last Prune, plus what the handle has appended since.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	Puts     int64 `json:"puts"`
	Corrupt  int64 `json:"corrupt"`
	// UnsyncedRecords and UnsyncedBytes are what a machine crash could
	// lose right now.
	UnsyncedRecords int   `json:"unsynced_records"`
	UnsyncedBytes   int64 `json:"unsynced_bytes"`
}

const (
	// segmentBytes is the size at which the active segment is sealed. At
	// 4 MiB the per-segment costs (create, fsync, close: about a
	// millisecond together) are spread over thousands of results, an open
	// scans with one segment-sized buffer, Prune's granularity stays small
	// beside any useful size bound, and a machine crash loses at most this
	// much recomputable work.
	segmentBytes = 4 << 20

	segSuffix = ".seg"
	keyPrefix = `{"key":"`
)

// NewCellCache opens the cache rooted at dir and indexes the segments
// already there — one sequential read of each, about a microsecond per
// record; the index costs about 140 bytes per record. A directory that
// does not exist is an empty cache, created with its first segment, so a
// cache nobody puts to (waved's sweep cache, most days) costs nothing.
func NewCellCache(dir string) (*CellCache, error) {
	entries, err := os.ReadDir(dir) // sorted by name: creation order
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	cc := &CellCache{dir: dir, index: map[string]recLoc{}}
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), segSuffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // pruned by another process since ReadDir
		}
		cc.stats.Segments++
		cc.stats.Bytes += int64(len(data))
		cc.corrupt.Add(int64(frame(data, func(key string, off, n int) {
			cc.index[key] = recLoc{e.Name(), int64(off), n}
		})))
	}
	return cc, nil
}

// frame splits a segment's bytes into records, calling add with each
// record's key and line range, and returns how many lines did not frame.
// A line frames when it is newline-terminated and opens with the
// envelope's key field; whether it validates is Get's business. One bad
// line costs only itself: framing resumes after the next newline, and an
// unterminated tail — a write the machine crashed in — is a bad line.
func frame(data []byte, add func(key string, off, n int)) (bad int) {
	for off := 0; off < len(data); {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			return bad + 1
		}
		key, ok := bytes.CutPrefix(data[off:off+n], []byte(keyPrefix))
		if end := bytes.IndexByte(key, '"'); ok && end >= 0 && plainKey(string(key[:end])) {
			add(string(key[:end]), off, n)
		} else {
			bad++
		}
		off += n + 1
	}
	return bad
}

// plainKey reports whether key is made of ASCII letters and digits only —
// what CacheKey returns, and what encoding/json writes verbatim, so frame
// can take a key from a line without decoding it.
func plainKey(key string) bool {
	for _, c := range []byte(key) {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			return false
		}
	}
	return key != ""
}

// Dir returns the cache root.
func (cc *CellCache) Dir() string { return cc.dir }

// Corrupt returns how many records this handle has found unusable: lines
// that did not frame at open, plus indexed records a Get dropped because
// they failed validation. Observability for tests and sweep logs, not a
// failure signal (each is simply recomputed).
func (cc *CellCache) Corrupt() int64 { return cc.corrupt.Load() }

// CacheKey hashes an ordered list of strings into a hex cell key. Parts
// are length-prefixed so distinct part lists can never collide by
// concatenation.
func CacheKey(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheEnvelope wraps a cell payload with its own key and a checksum. A
// record in a log has no file name to bind it to its key, so the checksum
// covers the key as well as the payload — a record whose key field rots
// into another well-formed key fails it like any other damage, instead of
// answering for a key nobody put.
type cacheEnvelope struct {
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

func envelopeSum(key string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0}) // in neither a plain key nor JSON text
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// Get loads the cell stored under key into v. It returns false — a miss
// to be recomputed — for absent records and for any record that fails
// validation: unparseable JSON, a key other than the one it was indexed
// under (a segment spliced by hand), or a checksum mismatch (truncation,
// torn write, bit rot).
func (cc *CellCache) Get(key string, v any) bool {
	cc.gets.Add(1)
	loc, line, ok := cc.read(key)
	if !ok {
		return false
	}
	var env cacheEnvelope
	if json.Unmarshal(line, &env) != nil || env.Key != key ||
		env.Sum != envelopeSum(key, env.Payload) || json.Unmarshal(env.Payload, v) != nil {
		cc.discard(key, loc)
		return false
	}
	cc.hits.Add(1)
	return true
}

// read returns key's record line and where it was read from. A segment
// that is gone (another handle pruned it) is a miss, not corruption; a
// short read is left to fail validation, the verdict a shrunken segment
// deserves, so ReadAt's error is dropped.
func (cc *CellCache) read(key string) (loc recLoc, line []byte, ok bool) {
	cc.mu.Lock()
	loc, ok = cc.index[key]
	if !ok {
		cc.mu.Unlock()
		return loc, nil, false
	}
	line = make([]byte, loc.n)
	if loc.seg == cc.active {
		// Under the lock: a concurrent seal closes this descriptor.
		n, _ := cc.file.ReadAt(line, loc.off)
		cc.mu.Unlock()
		return loc, line[:n], true
	}
	cc.mu.Unlock()
	f, err := os.Open(filepath.Join(cc.dir, loc.seg))
	if err != nil {
		return loc, nil, false
	}
	defer f.Close()
	n, _ := f.ReadAt(line, loc.off)
	return loc, line[:n], true
}

// discard drops a record that failed validation, if the index still names
// the bytes at loc, and counts it — once, however many Gets read it. A
// recomputed Put may have landed between a Get's read and its verdict on
// what it read; that newer record is not the one that failed.
func (cc *CellCache) discard(key string, loc recLoc) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.index[key] == loc {
		delete(cc.index, key)
		cc.corrupt.Add(1)
	}
}

// encodeRecord renders the line Put appends for v under key.
func encodeRecord(key string, v any) ([]byte, error) {
	if !plainKey(key) {
		return nil, fmt.Errorf("cellcache: key %q is not a CacheKey", key)
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cellcache: marshal: %w", err)
	}
	line, err := json.Marshal(&cacheEnvelope{Key: key, Sum: envelopeSum(key, payload), Payload: payload})
	if err != nil {
		return nil, fmt.Errorf("cellcache: marshal: %w", err)
	}
	return append(line, '\n'), nil
}

// Put appends v under key. When it returns nil the record is visible to
// this handle and survives the process being killed; it is durable
// against a machine crash once its segment is sealed or Sync returns.
func (cc *CellCache) Put(key string, v any) error {
	line, err := encodeRecord(key, v)
	if err != nil {
		return err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.file == nil {
		// The name sorts by creation time, which is what makes "the later
		// record wins" hold across handles, and ends in random bits, which
		// with O_EXCL keeps two processes from ever appending to one file.
		var r [4]byte
		rand.Read(r[:])
		name := fmt.Sprintf("%016x-%x%s", time.Now().UnixNano(), r, segSuffix)
		if err := os.MkdirAll(cc.dir, 0o755); err != nil {
			return fmt.Errorf("cellcache: %w", err)
		}
		f, err := os.OpenFile(filepath.Join(cc.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("cellcache: %w", err)
		}
		cc.active, cc.file, cc.size = name, f, 0
		cc.stats.Segments++
	}
	if _, err := cc.file.Write(line); err != nil {
		// A partial line would swallow the next record: abandon the
		// segment, whatever sealing it makes of it.
		_ = cc.flush(true)
		return fmt.Errorf("cellcache: append %s: %w", key, err)
	}
	n := int64(len(line))
	cc.index[key] = recLoc{cc.active, cc.size, len(line) - 1}
	cc.size += n
	cc.stats.Bytes += n
	cc.stats.Puts++
	cc.stats.UnsyncedRecords++
	cc.stats.UnsyncedBytes += n
	if cc.size >= segmentBytes {
		return cc.flush(true)
	}
	return nil
}

// flush fsyncs the active segment if anything in it is unsynced and, with
// seal set, closes it, so that the next Put starts another. Callers hold mu.
func (cc *CellCache) flush(seal bool) error {
	if cc.file == nil {
		return nil
	}
	var err error
	if cc.stats.UnsyncedRecords > 0 {
		err = cc.file.Sync()
		cc.stats.UnsyncedRecords, cc.stats.UnsyncedBytes = 0, 0
	}
	if seal {
		err = cmp.Or(err, cc.file.Close())
		cc.active, cc.file = "", nil
	}
	if err != nil {
		return fmt.Errorf("cellcache: sync: %w", err)
	}
	return nil
}

// Sync makes every record put so far durable against a machine crash.
func (cc *CellCache) Sync() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.flush(false)
}

// Close seals the active segment: everything put is durable and the
// handle's descriptor is released. The handle stays usable — a later Put
// starts a new segment — so a request that outlives a server's drain still
// stores its result.
func (cc *CellCache) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.flush(true)
}

// Stats returns the handle's counters.
func (cc *CellCache) Stats() CacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	st := cc.stats
	st.Records, st.Gets, st.Hits, st.Corrupt = len(cc.index), cc.gets.Load(), cc.hits.Load(), cc.corrupt.Load()
	return st
}
