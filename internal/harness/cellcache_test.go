package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type cachedThing struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

func TestCellCacheRoundTrip(t *testing.T) {
	cc, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("spec", "config", "engines-v1")
	var miss cachedThing
	if cc.Get(key, &miss) {
		t.Fatal("hit on empty cache")
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
				f.SetString(map[string]string{"Faults": "drop=0.02", "Policy": "random"}[v.Type().Field(i).Name])
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
	if a, b := (CompileOptions{Unroll: 0}), (CompileOptions{Unroll: 1}); a.Key() != b.Key() {
		t.Errorf("unroll 0 and 1 both mean off but key apart: %s, %s", a.Key(), b.Key())
	}
}

// TestCellCacheCorruption: truncated, bit-flipped, wrong-keyed, and
// garbage entries must all read as misses (and be counted), never be
// trusted — the caller recomputes and the recomputed Put heals the slot.
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
			cc, err := NewCellCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := CacheKey("cell", tc.name)
			want := cachedThing{Name: tc.name, Value: 123456789}
			if err := cc.Put(key, &want); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(cc.Dir(), key[:2], key+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got cachedThing
			if cc.Get(key, &got) {
				t.Fatalf("corrupt entry (%s) trusted: %+v", tc.name, got)
			}
			if cc.Corrupt() != 1 {
				t.Fatalf("corrupt count %d, want 1", cc.Corrupt())
			}
			// Recompute-and-Put heals the slot.
			if err := cc.Put(key, &want); err != nil {
				t.Fatal(err)
			}
			if !cc.Get(key, &got) || got != want {
				t.Fatalf("healed entry unreadable: %+v", got)
			}
		})
	}
}

// TestCellCacheWrongKeyFile: an entry copied under another cell's name
// (e.g. a botched manual merge of two cache dirs) must not be trusted.
func TestCellCacheWrongKeyFile(t *testing.T) {
	cc, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := CacheKey("one"), CacheKey("two")
	if err := cc.Put(k1, &cachedThing{Name: "one", Value: 1}); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(cc.Dir(), k1[:2], k1+".json")
	dst := filepath.Join(cc.Dir(), k2[:2], k2+".json")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got cachedThing
	if cc.Get(k2, &got) {
		t.Fatalf("entry with mismatched key trusted: %+v", got)
	}
}

// TestCellCacheNoTempLeaks: Put must leave only the entry, no temp files.
func TestCellCacheNoTempLeaks(t *testing.T) {
	cc, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cc.Put(CacheKey("n", string(rune('a'+i))), &cachedThing{Value: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	err = filepath.Walk(cc.Dir(), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && !strings.HasSuffix(path, ".json") {
			t.Errorf("stray file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
