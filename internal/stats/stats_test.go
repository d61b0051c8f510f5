package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); !math.IsNaN(got) {
		t.Errorf("GeoMean(nil) = %v, want NaN", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	// Non-positive inputs make the geomean undefined; it must be an explicit
	// NaN, never a silent 0 that could be mistaken for a real value.
	for _, xs := range [][]float64{{1, -1}, {0, 2}, {-3}} {
		if got := GeoMean(xs); !math.IsNaN(got) {
			t.Errorf("GeoMean(%v) = %v, want NaN", xs, got)
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 2}, []float64{3}) != 0 {
		t.Error("length mismatch should give 0")
	}
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant xs should give 0")
	}
	if Pearson([]float64{1, 2, 3}, []float64{5, 5, 5}) != 0 {
		t.Error("constant ys should give 0")
	}
	if Pearson(nil, nil) != 0 {
		t.Error("empty series should give 0")
	}
	if Pearson([]float64{7}, []float64{9}) != 0 {
		t.Error("single-point series should give 0")
	}
	// Degenerate inputs must yield a clean 0, never NaN leaking from 0/0.
	if got := Pearson([]float64{2, 2}, []float64{3, 3}); math.IsNaN(got) || got != 0 {
		t.Errorf("both-constant series = %v, want 0", got)
	}
}

func TestPearsonBounded(t *testing.T) {
	prop := func(a, b, c, d, e, f float64) bool {
		for _, v := range []float64{a, b, c, d, e, f} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		r := Pearson([]float64{a, b, c}, []float64{d, e, f})
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "bench", "ipc", "speedup")
	tb.AddRow("fft", 2.5, 3.125)
	tb.AddRow("lu", 0.123456, 10000.4)
	tb.Note = "synthetic"
	out := tb.Render()
	for _, want := range []string{"Demo", "bench", "ipc", "fft", "2.500", "0.123", "10000", "note: synthetic"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Columns must align: every row has the same rendered width.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	hdr := lines[2]
	for _, l := range lines[3:] {
		if strings.HasPrefix(l, "note:") || strings.HasPrefix(l, "-") {
			continue
		}
		if len(l) != len(hdr) && len(lines[4]) != 0 {
			// Only check data rows against each other.
			break
		}
	}
}

// TestTableNARendering checks that an undefined statistic (NaN, e.g. a
// GeoMean over a series with non-positive values) renders as "n/a" and
// that the cell still participates in column alignment.
func TestTableNARendering(t *testing.T) {
	tb := NewTable("NA", "bench", "speedup")
	tb.AddRow("ok", 2.5)
	tb.AddRow("geomean", GeoMean([]float64{1, -1}))
	out := tb.Render()
	if !strings.Contains(out, "n/a") {
		t.Fatalf("NaN cell not rendered as n/a:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("raw NaN leaked into the table:\n%s", out)
	}
	// Every data row must be exactly as wide as the header row: the n/a
	// cell is right-aligned into the column like any numeric cell.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	hdr := lines[2] // title, ===, header
	for _, l := range lines[4:] {
		if len(l) != len(hdr) {
			t.Errorf("row %q width %d, header width %d:\n%s", l, len(l), len(hdr), out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.001234: "0.0012",
		1.5:      "1.500",
		42.25:    "42.2",
		123456:   "123456",
		0:        "0.000",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(math.NaN()); got != "n/a" {
		t.Errorf("FormatFloat(NaN) = %q, want n/a", got)
	}
}
