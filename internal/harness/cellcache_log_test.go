package harness

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// A kilobyte of payload: the size the microbenchmarks and the seal test
// are stated at.
func kilobyte(i int) *cachedThing {
	return &cachedThing{Name: strings.Repeat("x", 1000), Value: int64(i)}
}

// TestCellCacheSealsAtSegmentBytes: a handle that puts more than a
// segment's worth starts another, leaves nothing unsynced in the one it
// sealed, and reads from sealed and active segments alike.
func TestCellCacheSealsAtSegmentBytes(t *testing.T) {
	cc := openCache(t, t.TempDir())
	n := segmentBytes/1000 + 100
	for i := 0; i < n; i++ {
		if err := cc.Put(CacheKey("seal", fmt.Sprint(i)), kilobyte(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := cc.Stats()
	if st.Segments != 2 || st.Records != n || st.Puts != int64(n) {
		t.Fatalf("after %d KB-sized puts: %+v, want 2 segments holding them all", n, st)
	}
	if st.UnsyncedBytes <= 0 || st.UnsyncedBytes >= st.Bytes-segmentBytes+2000 {
		t.Fatalf("unsynced %d of %d bytes: the sealed segment was not synced, or the active one is empty", st.UnsyncedBytes, st.Bytes)
	}
	if err := cc.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.UnsyncedBytes != 0 || st.UnsyncedRecords != 0 {
		t.Fatalf("after Sync: %+v", st)
	}
	for _, h := range []*CellCache{cc, openCache(t, cc.Dir())} {
		for i := 0; i < n; i += 97 {
			var got cachedThing
			if !h.Get(CacheKey("seal", fmt.Sprint(i)), &got) || got != *kilobyte(i) {
				t.Fatalf("record %d unreadable", i)
			}
		}
	}
}

// TestCellCacheKilledWriter is the first promise of the durability rule: a
// record whose Put has returned survives its process being killed, with no
// Close and no Sync. The writer is this test binary, re-executed.
func TestCellCacheKilledWriter(t *testing.T) {
	const n = 200
	if dir := os.Getenv("CELLCACHE_KILL_DIR"); dir != "" {
		cc, err := NewCellCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			key := CacheKey("killed", fmt.Sprint(i))
			if err := cc.Put(key, &cachedThing{Name: "killed", Value: int64(i)}); err != nil {
				t.Fatal(err)
			}
			fmt.Println(key) // only after Put returned
		}
		time.Sleep(time.Hour) // until SIGKILL
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCellCacheKilledWriter$")
	cmd.Env = append(os.Environ(), "CELLCACHE_KILL_DIR="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var reported []string
	for sc := bufio.NewScanner(out); len(reported) < n && sc.Scan(); {
		reported = append(reported, sc.Text())
	}
	cmd.Process.Kill()
	if err := cmd.Wait(); err == nil || cmd.ProcessState.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("the writer was to die of SIGKILL; it ended with %v", err)
	}
	if len(reported) != n {
		t.Fatalf("the writer reported %d puts, want %d", len(reported), n)
	}
	cc := openCache(t, dir)
	for i, key := range reported {
		var got cachedThing
		if want := (cachedThing{Name: "killed", Value: int64(i)}); key != CacheKey("killed", fmt.Sprint(i)) || !cc.Get(key, &got) || got != want {
			t.Fatalf("put %d (%s) was reported and is lost: %+v", i, key, got)
		}
	}
	if cc.Corrupt() != 0 {
		t.Fatalf("%d corrupt records after a clean kill", cc.Corrupt())
	}
}

// TestCellCacheTwoWriters is the visibility rule, and what -shard 1/2 and
// 2/2 on one directory rely on: two handles put disjoint keys at once and
// never share a segment; a handle opened afterwards reads all of them; a
// handle opened before misses them until it is reopened.
func TestCellCacheTwoWriters(t *testing.T) {
	const n = 100
	dir := t.TempDir()
	early := openCache(t, dir)
	writers := [2]*CellCache{openCache(t, dir), openCache(t, dir)}
	key := func(w, i int) string { return CacheKey("shard", fmt.Sprint(w), fmt.Sprint(i)) }
	var wg sync.WaitGroup
	for w, cc := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := cc.Put(key(w, i), &cachedThing{Value: int64(w*n + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	owner := map[string]int{}
	for w := range writers {
		for i := 0; i < n; i++ {
			owner[key(w, i)] = w
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments %v (%v), want one per writer", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		first := -1
		frame(data, func(k string, _, _ int) {
			if first < 0 {
				first = owner[k]
			}
			if owner[k] != first {
				t.Errorf("%s holds records of both writers", seg)
			}
		})
	}

	var got cachedThing
	if early.Get(key(0, 0), &got) {
		t.Error("a handle opened before the puts sees them without reopening")
	}
	for _, h := range []*CellCache{openCache(t, dir), writers[0]} {
		for k, w := range owner {
			if hit := h.Get(k, &got); hit != (h != writers[0] || w == 0) {
				t.Fatalf("key of writer %d: hit = %v on handle %p (writer 0 is %p)", w, hit, h, writers[0])
			}
		}
	}
}

// TestCellCacheManySegments: a directory of a thousand segments opens and
// serves under a descriptor limit far below that. Descriptors are bounded
// by construction — a handle holds one, for its active segment; open reads
// and closes each segment in turn, and a Get of any other segment opens,
// reads and closes.
func TestCellCacheManySegments(t *testing.T) {
	const n = 1000
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		line, err := encodeRecord(CacheKey("many", fmt.Sprint(i)), &cachedThing{Value: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x-00000000%s", i, segSuffix)), line, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Skip(err)
	}
	low := old
	low.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skip(err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old)

	cc := openCache(t, dir)
	if err := cc.Put(CacheKey("many", "own"), &cachedThing{Value: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var got cachedThing
		if !cc.Get(CacheKey("many", fmt.Sprint(i)), &got) || got.Value != int64(i) {
			t.Fatalf("segment %d of %d unreadable under RLIMIT_NOFILE=%d: %+v", i, n, low.Cur, got)
		}
	}
	if st := cc.Stats(); st.Segments != n+1 || st.Records != n+1 {
		t.Fatalf("stats %+v, want %d segments", st, n+1)
	}
}

// TestCellCacheDiscardKeepsNewerRecord is the interleaving the file-per-
// entry store lost: a Get reads a corrupt record, the recomputed cell's
// Put lands, and only then does the Get act on its verdict. It removed
// whatever was at the path — the good entry. Here the verdict names the
// bytes it is about.
func TestCellCacheDiscardKeepsNewerRecord(t *testing.T) {
	cc := openCache(t, t.TempDir())
	key, want := CacheKey("discard-race"), cachedThing{Name: "good", Value: 7}
	if err := cc.Put(key, &want); err != nil {
		t.Fatal(err)
	}
	rewriteRecord(t, cc, key, func(line []byte) []byte { line[len(line)/2] ^= 1; return line })

	loc, _, ok := cc.read(key) // a Get, up to its verdict
	if !ok {
		t.Fatal("corrupt record not read")
	}
	if err := cc.Put(key, &want); err != nil { // the recomputed cell
		t.Fatal(err)
	}
	cc.discard(key, loc) // the Get's verdict, late

	var got cachedThing
	if !cc.Get(key, &got) || got != want {
		t.Fatal("a late discard of the corrupt record took the recomputed one")
	}
	if cc.Corrupt() != 0 {
		t.Fatalf("Corrupt() = %d for a record that was superseded before anything dropped it", cc.Corrupt())
	}
}

// TestCellCacheCorruptCountedOnce: many goroutines reading one corrupt
// record count it once between them. Run under -race.
func TestCellCacheCorruptCountedOnce(t *testing.T) {
	cc := openCache(t, t.TempDir())
	key := CacheKey("corrupt-once")
	if err := cc.Put(key, &cachedThing{Value: 1}); err != nil {
		t.Fatal(err)
	}
	rewriteRecord(t, cc, key, func(line []byte) []byte { line[len(line)-3] ^= 1; return line })
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var got cachedThing
			if cc.Get(key, &got) {
				t.Errorf("corrupt record trusted: %+v", got)
			}
		}()
	}
	close(start)
	wg.Wait()
	if cc.Corrupt() != 1 {
		t.Fatalf("Corrupt() = %d after 16 Gets of one corrupt record, want 1", cc.Corrupt())
	}
}

// TestCellCacheConcurrent: handlers putting the same and different keys at
// once, each reading its own put back, with a Sync and a Close (a drain
// with stragglers) in the middle: nothing is lost. Run under -race.
func TestCellCacheConcurrent(t *testing.T) {
	cc := openCache(t, t.TempDir())
	key := func(k int) string { return fmt.Sprintf("%064x", k) }
	val := func(k int) cachedThing { return cachedThing{Name: "v", Value: int64(k) * 7} }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k, want := (g+i)%16, val((g+i)%16)
				if err := cc.Put(key(k), &want); err != nil {
					t.Error(err)
					return
				}
				var got cachedThing
				if !cc.Get(key(k), &got) || got != want {
					t.Errorf("key %d: get after put = %+v", k, got)
					return
				}
				if g == 0 && i == 50 {
					if err := cc.Sync(); err != nil {
						t.Error(err)
					}
				}
				if g == 1 && i == 100 {
					if err := cc.Close(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*CellCache{cc, openCache(t, cc.Dir())} {
		for k := 0; k < 16; k++ {
			var got cachedThing
			if !h.Get(key(k), &got) || got != val(k) {
				t.Errorf("key %d: read %+v, want %+v", k, got, val(k))
			}
		}
		if h.Corrupt() != 0 {
			t.Errorf("Corrupt() = %d", h.Corrupt())
		}
	}
}

// TestCellCacheNoGoroutines: a handle is plain data plus a descriptor. One
// that is opened, used and abandoned — the ledger's microbenchmark and
// every RunCorpus caller before this store had a Close — leaves no
// goroutine behind.
func TestCellCacheNoGoroutines(t *testing.T) {
	// The goroutines of the test before this one may still be on their way
	// out — a WaitGroup releases its waiter before they have exited — so
	// the count is read once it has stopped falling.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	cc, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := cc.Put(CacheKey("abandoned", fmt.Sprint(i)), &cachedThing{Value: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before the handle, %d after", before, after)
	}
}

// BenchmarkCellCachePut appends 1 KB results through every cost the store
// has: at -benchtime 20000x the run seals four segments, so the create,
// fsync and close of each are in ns/op.
func BenchmarkCellCachePut(b *testing.B) {
	cc := openCache(b, b.TempDir())
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = CacheKey("bench-put", fmt.Sprint(i))
	}
	v := kilobyte(1)
	b.SetBytes(1000)
	b.ResetTimer()
	for _, key := range keys {
		if err := cc.Put(key, v); err != nil {
			b.Fatal(err)
		}
	}
	if err := cc.Close(); err != nil { // the last segment's share
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(cc.Stats().Segments), "segments")
}

// BenchmarkCellCacheGet reads 1 KB results back in put order from a handle
// whose first four segments are sealed (read by open, pread, close) and
// whose last is active (pread on the handle's descriptor).
func BenchmarkCellCacheGet(b *testing.B) {
	cc := openCache(b, b.TempDir())
	const n = 20000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = CacheKey("bench-get", fmt.Sprint(i))
		if err := cc.Put(keys[i], kilobyte(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got cachedThing
		if !cc.Get(keys[i%n], &got) || got.Value != int64(i%n) {
			b.Fatalf("record %d unreadable", i%n)
		}
	}
}
