package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

type pruneProbe struct {
	ID  int   `json:"id"`
	Pad []int `json:"pad,omitempty"`
}

// putSegment puts each key as a pruneProbe (its ID the key's position in
// all) and seals, so that these keys have a segment to themselves, then
// dates the segment age into the past.
func putSegment(t *testing.T, cc *CellCache, all []string, keys []string, pad int, age time.Duration) (size int64) {
	t.Helper()
	for _, k := range keys {
		id := 0
		for all[id] != k {
			id++
		}
		if err := cc.Put(k, &pruneProbe{ID: id, Pad: make([]int, pad)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	path, _, _ := cc.recordRange(t, keys[0])
	mt := time.Now().Add(-age)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func pruneKeys(what string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = CacheKey(what, fmt.Sprint(i))
	}
	return keys
}

func TestPruneAgeBound(t *testing.T) {
	cc := openCache(t, t.TempDir())
	keys := pruneKeys("prune-age", 8)
	// Two segments; the first was last written two hours ago.
	putSegment(t, cc, keys, keys[:4], 0, 2*time.Hour)
	putSegment(t, cc, keys, keys[4:], 0, 0)
	st, err := cc.Prune(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedAge != 4 || st.Scanned != 8 {
		t.Fatalf("prune stats %+v, want 4 of 8 removed by age", st)
	}
	for _, h := range []*CellCache{cc, openCache(t, cc.Dir())} {
		for i, k := range keys {
			var v pruneProbe
			got := h.Get(k, &v)
			if want := i >= 4; got != want || got && v.ID != i {
				t.Fatalf("key %d: present=%v (%+v), want %v", i, got, v, want)
			}
		}
	}
}

func TestPruneSizeBoundEvictsOldestFirst(t *testing.T) {
	cc := openCache(t, t.TempDir())
	const n = 6
	keys := pruneKeys("prune-size", n)
	var segBytes int64
	for i := range keys {
		// Deterministic age order: segment i is (n-i) hours old.
		segBytes = putSegment(t, cc, keys, keys[i:i+1], 64, time.Duration(n-i)*time.Hour)
	}
	// Budget for three segments: the three oldest must go.
	st, err := cc.Prune(0, 3*segBytes+segBytes/2)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedSize != 3 || st.KeptBytes != 3*segBytes {
		t.Fatalf("prune stats %+v, want 3 removed by size and %d bytes kept", st, 3*segBytes)
	}
	if cs := cc.Stats(); cs.Segments != 3 || cs.Bytes != 3*segBytes || cs.Records != 3 {
		t.Fatalf("after the pass the handle reads %+v, want the three segments left", cs)
	}
	for i, k := range keys {
		var v pruneProbe
		got := cc.Get(k, &v)
		if want := i >= 3; got != want {
			t.Fatalf("key %d: present=%v, want %v (oldest-first eviction)", i, got, want)
		}
	}
}

// TestPruneLeavesNestedCacheAlone: pruning a cache never reaches into a
// directory inside it — waved keeps its sweep cache (`corpus`) inside its
// simulate cache — even when the outer pass removes every segment.
func TestPruneLeavesNestedCacheAlone(t *testing.T) {
	dir := t.TempDir()
	cc := openCache(t, dir)
	outer, inner := CacheKey("outer"), CacheKey("inner")
	if err := cc.Put(outer, &pruneProbe{ID: 1}); err != nil {
		t.Fatal(err)
	}
	sweep := openCache(t, filepath.Join(dir, "corpus"))
	if err := sweep.Put(inner, &pruneProbe{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sweep.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := cc.Prune(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed() != 1 || st.KeptBytes != 0 {
		t.Fatalf("prune stats %+v, want the outer record removed and nothing kept", st)
	}
	var v pruneProbe
	if !openCache(t, sweep.Dir()).Get(inner, &v) || v.ID != 2 {
		t.Error("prune of the outer cache reached into the nested one")
	}
}

// TestPruneConcurrentWithPutGet is the prune atomicity contract: a prune
// pass racing Put and Get traffic (a long-lived waved process) must never
// surface a torn entry — every Get either misses or returns a fully valid
// payload, and the cache's corruption counter stays at zero.
//
// A pass seals the writers' active segment and unlinks it under them; every
// other pass comes from a second handle on the directory, which unlinks
// segments the first is still appending to and reading.
func TestPruneConcurrentWithPutGet(t *testing.T) {
	cc := openCache(t, t.TempDir())
	handles := [2]*CellCache{cc, openCache(t, cc.Dir())}
	const (
		writers = 4
		keysPer = 32
		rounds  = 25
	)
	var writersWG, prunerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keysPer; i++ {
					key := CacheKey("prune-race", fmt.Sprint(w), fmt.Sprint(i))
					want := w*1000 + i
					if err := cc.Put(key, &pruneProbe{ID: want}); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					var v pruneProbe
					if cc.Get(key, &v) && v.ID != want {
						t.Errorf("key w=%d i=%d: got payload %d, want %d (torn entry)", w, i, v.ID, want)
						return
					}
				}
			}
		}(w)
	}
	prunerWG.Add(1)
	go func() {
		defer prunerWG.Done()
		for pass := 0; ; pass++ {
			select {
			case <-stop:
				return
			default:
			}
			// Alternate aggressive size-bound and age-bound passes.
			h := handles[pass%2]
			if _, err := h.Prune(0, 1); err != nil {
				t.Errorf("prune: %v", err)
				return
			}
			if _, err := h.Prune(time.Nanosecond, 0); err != nil {
				t.Errorf("prune: %v", err)
				return
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	prunerWG.Wait()
	if got := cc.Corrupt(); got != 0 {
		t.Fatalf("cache discarded %d corrupt entries during prune race; writes must stay atomic", got)
	}
}

func TestParsePruneSpec(t *testing.T) {
	age, size, err := ParsePruneSpec("age=24h,size=256MB")
	if err != nil || age != 24*time.Hour || size != 256e6 {
		t.Fatalf("got age=%v size=%d err=%v", age, size, err)
	}
	if _, _, err := ParsePruneSpec(""); err == nil {
		t.Fatal("empty spec must be rejected")
	}
	if _, _, err := ParsePruneSpec("size=cheese"); err == nil {
		t.Fatal("bad size must be rejected")
	}
	if _, _, err := ParsePruneSpec("ttl=1h"); err == nil {
		t.Fatal("unknown key must be rejected")
	}
	for s, want := range map[string]int64{
		"512":  512,
		"1KB":  1000,
		"2MiB": 2 << 20,
		"3GB":  3e9,
	} {
		got, err := ParseBytes(s)
		if err != nil || got != want {
			t.Fatalf("ParseBytes(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	if _, err := ParseBytes("-1MB"); err == nil {
		t.Fatal("negative byte count must be rejected")
	}
}
