package harness

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// PruneStats reports what one CellCache.Prune pass did. Prune works by the
// segment; the counts are of the live records the handle indexes, so they
// read as they always have.
type PruneStats struct {
	// Scanned is the number of records the handle held before the pass.
	Scanned int
	// RemovedAge / RemovedSize count records deleted with segments older
	// than the age bound and with segments evicted to meet the size bound.
	RemovedAge, RemovedSize int
	// KeptBytes is the total segment size remaining after the pass.
	KeptBytes int64
}

// Removed is the total number of cache records deleted.
func (p PruneStats) Removed() int { return p.RemovedAge + p.RemovedSize }

func (p PruneStats) String() string {
	return fmt.Sprintf("scanned %d, removed %d (age %d, size %d), kept %s",
		p.Scanned, p.Removed(), p.RemovedAge, p.RemovedSize, FormatBytes(p.KeptBytes))
}

// Prune bounds the cache directory for long-lived processes. It seals the
// active segment, so the bounds have whole segments to work on, then
// unlinks every segment last written more than maxAge ago (0 = no age
// bound) and, oldest first, enough further segments to bring the total
// size under maxBytes (0 = no size bound); keys that lived in a removed
// segment leave the index. Directories are skipped: a directory is not a
// segment.
//
// Prune is safe beside Put and Get on this handle and on any other handle
// or process sharing the directory: a pruned record simply becomes a miss
// to be recomputed. A segment another handle is still appending to is a
// candidate like any other; what its writer appends after the unlink only
// that writer sees. Deletion errors count the segment as kept; only a
// failure to list the directory is returned.
func (cc *CellCache) Prune(maxAge time.Duration, maxBytes int64) (PruneStats, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	st := PruneStats{Scanned: len(cc.index)}
	if err := cc.flush(true); err != nil {
		return st, err
	}
	entries, err := os.ReadDir(cc.dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) { // no directory yet: nothing to prune
		return st, fmt.Errorf("cellcache: prune: %w", err)
	}
	nsegs := 0
	var kept []os.FileInfo    // segments the age bound left: the size bound's candidates
	gone := map[string]*int{} // removed segment -> the counter its records go to
	remove := func(info os.FileInfo, counter *int) bool {
		if os.Remove(filepath.Join(cc.dir, info.Name())) != nil {
			return false
		}
		gone[info.Name()] = counter
		st.KeptBytes -= info.Size()
		return true
	}
	now := time.Now()
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || e.IsDir() || !strings.HasSuffix(e.Name(), segSuffix) {
			continue // pruned underneath us, or not ours
		}
		st.KeptBytes += info.Size()
		nsegs++
		if maxAge <= 0 || now.Sub(info.ModTime()) <= maxAge || !remove(info, &st.RemovedAge) {
			kept = append(kept, info)
		}
	}
	// Oldest first; ties broken by name so the pass is deterministic.
	sort.Slice(kept, func(i, j int) bool {
		return cmp.Or(kept[i].ModTime().Compare(kept[j].ModTime()), strings.Compare(kept[i].Name(), kept[j].Name())) < 0
	})
	for _, info := range kept {
		if maxBytes <= 0 || st.KeptBytes <= maxBytes {
			break
		}
		remove(info, &st.RemovedSize)
	}
	for key, loc := range cc.index {
		if counter := gone[loc.seg]; counter != nil {
			*counter++
			delete(cc.index, key)
		}
	}
	cc.stats.Segments, cc.stats.Bytes = nsegs-len(gone), st.KeptBytes // the directory, as just seen
	return st, nil
}

// ParsePruneSpec parses the CLI prune specification: comma-separated
// key=value pairs with keys "age" (a Go duration, e.g. 24h) and "size" (a
// byte count with optional KB/MB/GB/KiB/MiB/GiB suffix). At least one
// bound must be given; a zero bound means "no bound on that axis".
func ParsePruneSpec(spec string) (maxAge time.Duration, maxBytes int64, err error) {
	if strings.TrimSpace(spec) == "" {
		return 0, 0, fmt.Errorf("cellcache: empty prune spec (want age=DUR and/or size=BYTES)")
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return 0, 0, fmt.Errorf("cellcache: bad prune spec part %q (want key=value)", part)
		}
		switch k {
		case "age":
			maxAge, err = time.ParseDuration(v)
			if err != nil {
				return 0, 0, fmt.Errorf("cellcache: bad prune age %q: %w", v, err)
			}
			if maxAge < 0 {
				return 0, 0, fmt.Errorf("cellcache: negative prune age %q", v)
			}
		case "size":
			maxBytes, err = ParseBytes(v)
			if err != nil {
				return 0, 0, err
			}
		default:
			return 0, 0, fmt.Errorf("cellcache: unknown prune key %q (want age or size)", k)
		}
	}
	return maxAge, maxBytes, nil
}

// ParseBytes parses a byte count: a plain integer, or one with a
// KB/MB/GB (decimal) or KiB/MiB/GiB (binary) suffix, or a bare B. A
// count whose bytes do not fit an int64 is an error, not a wrapped bound.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"B", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSpace(strings.TrimSuffix(t, u.suffix))
			mult = u.mult
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("cellcache: bad byte count %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("cellcache: byte count %q overflows int64", s)
	}
	return n * mult, nil
}

// FormatBytes renders a byte count with a decimal unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fGB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fMB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.2fKB", float64(n)/1e3)
	}
	return fmt.Sprintf("%dB", n)
}
