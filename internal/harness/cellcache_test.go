package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

type cachedThing struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

func openCache(t testing.TB, dir string) *CellCache {
	t.Helper()
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// recordRange returns where key's record lives: its segment file and the
// byte range of its line, the newline excluded.
func (cc *CellCache) recordRange(t testing.TB, key string) (path string, off, n int) {
	t.Helper()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	loc, ok := cc.index[key]
	if !ok {
		t.Fatalf("key %s is not indexed", key)
	}
	return filepath.Join(cc.dir, loc.seg), int(loc.off), loc.n
}

// rewriteRecord seals cc and replaces key's line in its segment file with
// edit(line), keeping the newline, so the neighbours still frame.
func rewriteRecord(t testing.TB, cc *CellCache, key string, edit func(line []byte) []byte) {
	t.Helper()
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	path, off, n := cc.recordRange(t, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := edit(bytes.Clone(data[off : off+n]))
	data = append(data[:off:off], append(line, data[off+n:]...)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCellCacheRoundTrip(t *testing.T) {
	// A directory that does not exist yet is an empty cache; the first Put
	// creates it.
	cc := openCache(t, filepath.Join(t.TempDir(), "not", "yet"))
	key := CacheKey("spec", "config", "engines-v1")
	var miss cachedThing
	if cc.Get(key, &miss) {
		t.Fatal("hit on empty cache")
	}
	if st, err := cc.Prune(time.Hour, 1); err != nil || st != (PruneStats{}) {
		t.Fatalf("prune of an empty cache: %+v, %v", st, err)
	}
	if _, err := os.Stat(cc.Dir()); !os.IsNotExist(err) {
		t.Fatalf("a cache nothing was put to has a directory (%v)", err)
	}
	want := cachedThing{Name: "cell", Value: 1 << 62}
	if err := cc.Put(key, &want); err != nil {
		t.Fatal(err)
	}
	var got cachedThing
	if !cc.Get(key, &got) {
		t.Fatal("miss after Put")
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	if cc.Corrupt() != 0 {
		t.Fatalf("clean cache reported %d corrupt entries", cc.Corrupt())
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := CacheKey("a", "b")
	if CacheKey("a", "b") != base {
		t.Fatal("CacheKey not deterministic")
	}
	for _, parts := range [][]string{{"a", "c"}, {"a"}, {"ab"}, {"a", "b", ""}, {"", "ab"}} {
		if CacheKey(parts...) == base {
			t.Fatalf("CacheKey(%q) collided with CacheKey(a, b)", parts)
		}
	}

	// The option structs' Key methods feed every cache key, so a field that
	// can change a result must change its Key: walk the fields, so that a
	// knob added without being keyed fails here. The fields below cannot
	// change what a binary is or what a run returns.
	notKeyed := map[string]string{
		"CompileOptions.Workers":  "scheduling only",
		"CompileOptions.Binaries": "which binaries are built, not what each is; callers key the binary they run",
		"CompileOptions.Ctx":      "cancellation only",
		"MachineOptions.Tracer":   "observes a run (TestTracingDoesNotPerturbSimulation)",
		"MachineOptions.Workers":  "scheduling only (TestWorkerCountInvariance)",
		"MachineOptions.Metrics":  "observes a run",
		"MachineOptions.Ctx":      "cancellation only",
	}
	keyOf := func(v reflect.Value) string {
		return v.Addr().MethodByName("Key").Call(nil)[0].String()
	}
	m := DefaultMachineOptions()
	m.Faults = "drop=0.01"
	for _, opts := range []any{&m, &CompileOptions{Unroll: 4, OptLevel: 1}} {
		v := reflect.ValueOf(opts).Elem()
		before := keyOf(v)
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Name() + "." + v.Type().Field(i).Name
			f, old := v.Field(i), reflect.New(v.Field(i).Type()).Elem()
			old.Set(f)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.String:
				f.SetString(map[string]string{"Faults": "drop=0.02", "Policy": "random", "Regime": "ideal"}[v.Type().Field(i).Name])
			case reflect.Slice:
				f.Set(reflect.ValueOf([]string{"steer"}))
			case reflect.Pointer:
				f.Set(reflect.New(f.Type().Elem()))
			case reflect.Interface:
				f.Set(reflect.ValueOf(context.Background()))
			default:
				t.Fatalf("%s: no mutation for kind %s; teach this test", name, f.Kind())
			}
			if _, skip := notKeyed[name]; skip == (keyOf(v) != before) {
				t.Errorf("%s: mutated, Key changed = %v, listed as not keyed = %v", name, !skip, skip)
			}
			f.Set(old)
		}
	}

	// Canonical: spellings of one machine share a key, different machines
	// do not.
	same := [][2]MachineOptions{
		{{}, DefaultMachineOptions()},
		{{}, {NetScale: 1, SwapPenalty: 32}},
		{{Regime: "ideal"}, {Regime: "ideal", NetScale: 1, SwapPenalty: 32}},
		{{Faults: "drop=0.01,defect=0.05"}, {Faults: " defect=0.05, drop=0.010"}},
		{{Faults: "drop=0.01"}, {Faults: "drop=0.01,retries=8,timeout=64,delaycycles=16"}},
	}
	for _, p := range same {
		if p[0].Key() != p[1].Key() {
			t.Errorf("%+v and %+v are one machine but key apart:\n%s\n%s", p[0], p[1], p[0].Key(), p[1].Key())
		}
	}
	if a, b := (MachineOptions{Faults: "drop=0.01"}), (MachineOptions{Faults: "drop=0.01,retries=2"}); a.Key() == b.Key() {
		t.Errorf("retries=2 keys like the default: %s", a.Key())
	}
	for _, z := range []MachineOptions{{NetScale: zeroed}, {SwapPenalty: zeroed}} {
		if z.Key() == DefaultMachineOptions().Key() {
			t.Errorf("%+v, a zero latency, keys like the published machine: %s", z, z.Key())
		}
	}
	// waved's result cache and the corpus -resume directories are keyed by
	// it: the published machine keeps the key it had before Regime,
	// NetScale and SwapPenalty were fields.
	if got, want := DefaultMachineOptions().Key(), `grid=4x4 density=16 pestore=64 queue=64 policy="dynamic-depth-first-snake" mem=wave-ordered l1words=0 maxcycles=0 faults= faultseed=0`; got != want {
		t.Errorf("the published machine's key is %s, was %s", got, want)
	}
	if a, b := (CompileOptions{Unroll: 0}), (CompileOptions{Unroll: 1}); a.Key() != b.Key() {
		t.Errorf("unroll 0 and 1 both mean off but key apart: %s, %s", a.Key(), b.Key())
	}
}

// TestCellCacheCorruption: truncated, bit-flipped, wrong-keyed, and
// garbage entries must all read as misses (and be counted), never be
// trusted — the caller recomputes and the recomputed Put heals the slot.
// The damage lands under a live handle (rot after the index was built) and
// is seen again by a handle opened afterwards.
func TestCellCacheCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bit-flip", func(d []byte) []byte {
			// Flip a payload digit: the envelope stays parseable but the
			// checksum no longer matches.
			s := string(d)
			i := strings.Index(s, `"value":`) + len(`"value":`)
			out := []byte(s)
			if out[i] == '1' {
				out[i] = '2'
			} else {
				out[i] = '1'
			}
			return out
		}},
		{"garbage", func(d []byte) []byte { return []byte("not json at all") }},
		{"empty", func(d []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc := openCache(t, t.TempDir())
			key := CacheKey("cell", tc.name)
			want := cachedThing{Name: tc.name, Value: 123456789}
			if err := cc.Put(key, &want); err != nil {
				t.Fatal(err)
			}
			rewriteRecord(t, cc, key, tc.corrupt)
			var got cachedThing
			for _, h := range []*CellCache{cc, openCache(t, cc.Dir())} {
				if h.Get(key, &got) {
					t.Fatalf("corrupt entry (%s) trusted: %+v", tc.name, got)
				}
				if h.Corrupt() != 1 {
					t.Fatalf("corrupt count %d, want 1", h.Corrupt())
				}
			}
			// Recompute-and-Put heals the slot, for this handle and the next.
			if err := cc.Put(key, &want); err != nil {
				t.Fatal(err)
			}
			for _, h := range []*CellCache{cc, openCache(t, cc.Dir())} {
				if !h.Get(key, &got) || got != want {
					t.Fatalf("healed entry unreadable: %+v", got)
				}
			}
		})
	}
}

// TestCellCacheWrongKeyFile: a record whose envelope key is not the key
// its index slot was filed under (a segment edited or spliced by hand,
// e.g. a botched manual merge of two cache dirs) must not be trusted.
func TestCellCacheWrongKeyFile(t *testing.T) {
	cc := openCache(t, t.TempDir())
	k1, k2 := CacheKey("one"), CacheKey("two")
	if err := cc.Put(k1, &cachedThing{Name: "one", Value: 1}); err != nil {
		t.Fatal(err)
	}
	// Frames as k2 (the first key field), decodes as k1 (the last one).
	rewriteRecord(t, cc, k1, func(line []byte) []byte {
		return append([]byte(keyPrefix+k2+`",`), line[1:]...)
	})
	cc = openCache(t, cc.Dir())
	var got cachedThing
	if cc.Get(k2, &got) {
		t.Fatalf("entry with mismatched key trusted: %+v", got)
	}
	if cc.Get(k1, &got) {
		t.Fatalf("k1 is filed under k2, yet Get(k1) hit: %+v", got)
	}
	if cc.Corrupt() != 1 {
		t.Fatalf("corrupt count %d, want 1", cc.Corrupt())
	}
}

// TestCellCacheNoTempLeaks: puts and Close must leave segment files in the
// directory and nothing else.
func TestCellCacheNoTempLeaks(t *testing.T) {
	cc := openCache(t, t.TempDir())
	for i := 0; i < 10; i++ {
		if err := cc.Put(CacheKey("n", string(rune('a'+i))), &cachedThing{Value: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	err := filepath.Walk(cc.Dir(), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if path != cc.Dir() && (info.IsDir() || !strings.HasSuffix(path, segSuffix)) {
			t.Errorf("stray file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sweepImage is the segment the every-offset sweeps damage: three records,
// so that there is a first, a middle and a last one.
type sweepImage struct {
	dir    string // one directory for every check: creating files is the slow part
	data   []byte
	keys   [3]string
	want   [3]cachedThing
	starts [4]int // record i's line and newline are data[starts[i]:starts[i+1]]
}

func newSweepImage(t testing.TB) *sweepImage {
	t.Helper()
	im := &sweepImage{dir: t.TempDir()}
	for i := range im.keys {
		im.keys[i] = CacheKey("sweep", fmt.Sprint(i))
		im.want[i] = cachedThing{Name: fmt.Sprint("cell-", i), Value: int64(1000 + i)}
		line, err := encodeRecord(im.keys[i], &im.want[i])
		if err != nil {
			t.Fatal(err)
		}
		im.starts[i] = len(im.data)
		im.data = append(im.data, line...)
	}
	im.starts[3] = len(im.data)
	return im
}

// check opens a directory holding data as its one segment and holds the
// store to its promise: every Get — of the keys that were put, and of
// every key the damaged bytes happen to frame under — is the exact value
// put under that key or a miss. It returns which records missed and the
// handle's Corrupt count after those Gets. With heal set it goes on: a Put
// of each missed key supersedes the damage, so that a third open hits it
// without counting.
func (im *sweepImage) check(t *testing.T, what string, data []byte, heal bool) (missed [3]bool, corrupt int64) {
	t.Helper()
	dir, damaged := im.dir, filepath.Join(im.dir, "0000000000000001-00000000"+segSuffix)
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cc, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	put := map[string]cachedThing{}
	for i, key := range im.keys {
		put[key] = im.want[i]
		var got cachedThing
		if hit := cc.Get(key, &got); hit && got != im.want[i] {
			t.Fatalf("%s: key %d read %+v, put %+v", what, i, got, im.want[i])
		} else if !hit {
			missed[i] = true
		}
	}
	cc.mu.Lock()
	var framed []string
	for key := range cc.index {
		framed = append(framed, key)
	}
	cc.mu.Unlock()
	for _, key := range framed {
		var got cachedThing
		if want, ok := put[key]; cc.Get(key, &got) && (!ok || got != want) {
			t.Fatalf("%s: key %s, which frames, read %+v; put %+v (%v)", what, key, got, want, ok)
		}
	}
	corrupt = cc.Corrupt()
	if !heal {
		return missed, corrupt
	}

	for i, key := range im.keys {
		if missed[i] {
			if err := cc.Put(key, &im.want[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := NewCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := third.Corrupt() // lines that do not frame are counted by every open
	for i, key := range im.keys {
		var got cachedThing
		if !third.Get(key, &got) || got != im.want[i] {
			t.Fatalf("%s: key %d not healed by its Put: %+v", what, i, got)
		}
	}
	if third.Corrupt() != before {
		t.Fatalf("%s: healed keys still count as corrupt (%d -> %d)", what, before, third.Corrupt())
	}
	for _, loc := range third.index { // the healing segment, if there was one
		if path := filepath.Join(dir, loc.seg); path != damaged {
			os.Remove(path)
		}
	}
	return missed, corrupt
}

// TestCellCacheTruncatedAtEveryLength: a segment cut at any length — the
// tail a machine crash leaves — keeps exactly the records that are whole,
// and counts the one the cut went through.
func TestCellCacheTruncatedAtEveryLength(t *testing.T) {
	im := newSweepImage(t)
	for n := 0; n <= len(im.data); n++ {
		missed, corrupt := im.check(t, fmt.Sprint("cut at ", n), im.data[:n], n%4 == 0) // a heal costs an fsync
		var torn int64
		for i := range im.keys {
			if whole := im.starts[i+1] <= n; missed[i] == whole {
				t.Fatalf("cut at %d: record %d (bytes %d..%d) missed = %v", n, i, im.starts[i], im.starts[i+1], missed[i])
			}
			if im.starts[i] < n && n < im.starts[i+1] {
				torn = 1
			}
		}
		if corrupt != torn {
			t.Fatalf("cut at %d: Corrupt() = %d, want %d", n, corrupt, torn)
		}
	}
}

// TestCellCacheBitFlipAtEveryOffset: one flipped bit anywhere costs the
// record it is in and no other — framing picks up again at the next
// newline — and Corrupt counts the records lost. The exception is the
// delimiter itself: a newline flipped away splices a record onto its
// successor and the pair is lost (counted once, as the one line it now
// is), and a byte flipped into a newline splits a record into two bad
// lines (counted twice when both halves are found bad).
func TestCellCacheBitFlipAtEveryOffset(t *testing.T) {
	im := newSweepImage(t)
	for off := range im.data {
		rec := 0
		for im.starts[rec+1] <= off {
			rec++
		}
		for bit := 0; bit < 8; bit++ {
			// Every bit of the bytes that carry structure; of a letter or
			// digit, the one bit its offset picks (all eight come round
			// every eight characters of a key or checksum).
			if bit != off%8 && plainKey(string(im.data[off])) {
				continue
			}
			data := bytes.Clone(im.data)
			data[off] ^= 1 << bit
			what := fmt.Sprintf("offset %d (record %d) bit %d", off, rec, bit)
			missed, corrupt := im.check(t, what, data, bit == off%8 && off%4 == 0)
			joined, split := im.data[off] == '\n', data[off] == '\n'
			var lost int64
			for i := range im.keys {
				if mayMiss := i == rec || joined && i == rec+1; missed[i] && !mayMiss {
					t.Fatalf("%s: took record %d with it", what, i)
				}
				if missed[i] {
					lost++
				}
			}
			switch {
			case joined && rec < 2:
				if lost != 2 || corrupt != 1 {
					t.Fatalf("%s: a spliced pair: lost %d, Corrupt() = %d; want 2, 1", what, lost, corrupt)
				}
			case split:
				if lost != 1 || corrupt < 1 || corrupt > 2 {
					t.Fatalf("%s: a split record: lost %d, Corrupt() = %d; want 1, 1..2", what, lost, corrupt)
				}
			default:
				if corrupt != lost {
					t.Fatalf("%s: lost %d records, Corrupt() = %d", what, lost, corrupt)
				}
			}
		}
	}
}

// FuzzCellCacheOpen: arbitrary bytes as a segment. Open must not panic or
// fail, and a Get that hits must return a payload the record's own
// checksum vouches for, under the key it was asked for.
func FuzzCellCacheOpen(f *testing.F) {
	im := newSweepImage(f)
	f.Add(im.data)
	f.Add(im.data[:len(im.data)-7])
	f.Add(append(bytes.Clone(im.data[:im.starts[1]]), "not a record\n\n{\"key\":\"\n"...))
	f.Add([]byte(keyPrefix + im.keys[0] + `","key":"` + im.keys[1] + `","sum":"","payload":1}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000001-00000000"+segSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cc, err := NewCellCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		for key, loc := range cc.index {
			var payload json.RawMessage
			if !cc.Get(key, &payload) {
				continue
			}
			line := data[loc.off : loc.off+int64(loc.n)]
			if !bytes.Contains(line, []byte(`"`+envelopeSum(key, payload)+`"`)) {
				t.Fatalf("Get(%s) hit with payload %s, which the record %s does not vouch for", key, payload, line)
			}
		}
	})
}
