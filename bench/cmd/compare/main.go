// Command compare reads the run records `bench -out` writes and judges a
// change against its parent by the benchmark's own bounds.
//
//	compare a.jsonl b.jsonl
//	    per metric x workload: both medians and quartiles, the relative
//	    difference, the bound, and ok / worse / unresolved. Exits 1 when any
//	    end-to-end metric is worse.
//	compare -exec -a ./benchA -b ./benchB [-n 10] [-seed 1] [-dir out]
//	    runs two prebuilt benchmark binaries interleaved, alternating which
//	    side goes first (the host drifts, so this is the only accepted
//	    methodology), then compares out/a.jsonl with out/b.jsonl.
//	compare -summary runs.jsonl [more.jsonl ...]
//	    prints medians, quartiles and sample counts as JSON, one section
//	    per file (bench/results/baseline.json is this output).
//
// Run it from the repository root, or point -manifest at BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// record is one line of a run file (bench's runRecord).
type record struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Trace    int             `json:"trace"`
	Host     json.RawMessage `json:"host"`
	Result   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// summary describes the samples of one metric on one workload.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Spread is (Q3-Q1)/median, the figure the benchmark's bounds are
	// judged against.
	Spread float64 `json:"spread"`
}

// quartiles matches Python's statistics.quantiles(values, n=4).
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(unit string, vals []float64) *summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q1, q2, q3 := quartiles(s)
	sm := &summary{Unit: unit, N: len(s), Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
	if q2 != 0 {
		sm.Spread = (q3 - q1) / math.Abs(q2)
	}
	return sm
}

// section is the summary of one run file.
type section struct {
	Runs      int                            `json:"runs"`
	Seeds     []int64                        `json:"seeds"`
	Failed    int                            `json:"failed"`
	Attempted int                            `json:"attempted"`
	Host      json.RawMessage                `json:"host"`
	EndToEnd  map[string]map[string]*summary `json:"end_to_end"` // workload -> metric
	PerLayer  map[string]map[string]*summary `json:"per_layer"`
}

func summarizeFile(mf *manifest, recs []record) *section {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, mf.EndToEnd...), mf.PerLayer...) {
		units[d.Name] = d.Unit
	}
	sec := &section{EndToEnd: map[string]map[string]*summary{}, PerLayer: map[string]map[string]*summary{}}
	vals := [2]map[string]map[string][]float64{{}, {}}
	seeds := map[int64]bool{}
	for _, r := range recs {
		sec.Runs++
		sec.Failed += r.Result.Failed
		sec.Attempted += r.Result.Attempted
		sec.Host = r.Host
		if !seeds[r.Seed] {
			seeds[r.Seed] = true
			sec.Seeds = append(sec.Seeds, r.Seed)
		}
		byMetric := vals[r.Trace][r.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			vals[r.Trace][r.Workload] = byMetric
		}
		for name, m := range r.Result.Metrics {
			if _, known := units[name]; known { // a metric BENCHMARK.json no longer names is skipped
				byMetric[name] = append(byMetric[name], m.Value)
			}
		}
	}
	sort.Slice(sec.Seeds, func(i, j int) bool { return sec.Seeds[i] < sec.Seeds[j] })
	for trace, dst := range []map[string]map[string]*summary{sec.EndToEnd, sec.PerLayer} {
		for w, byMetric := range vals[trace] {
			dst[w] = map[string]*summary{}
			for name, v := range byMetric {
				dst[w][name] = summarize(units[name], v)
			}
		}
	}
	return sec
}

// verdict judges b against a for one metric. worse is the relative change of
// the median in the direction that is worse, as a share of a's median.
func verdict(d metricDef, a, b *summary) (worse float64, status string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / math.Abs(a.Median)
	}
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Bound == 0 { // per-layer metrics carry no bound and do not gate
		return worse, "-"
	}
	// Where the run-to-run spread is wider than the bound the metric is
	// unresolved, not unchanged, unless the two sets of runs do not overlap.
	if math.Max(a.Spread, b.Spread) > d.Bound {
		bBetter, bWorse := b.Max < a.Min, b.Min > a.Max
		if d.Better == "higher" {
			bBetter, bWorse = b.Min > a.Max, b.Max < a.Min
		}
		switch {
		case bBetter:
			return worse, "ok"
		case bWorse && worse > d.Bound:
			return worse, "worse"
		}
		return worse, "unresolved"
	}
	if worse > d.Bound {
		return worse, "worse"
	}
	return worse, "ok"
}

func compare(mf *manifest, a, b *section) (anyWorse bool) {
	row := func(w string, d metricDef, sa, sb *summary) {
		worse, status := verdict(d, sa, sb)
		if status == "worse" {
			anyWorse = true
		}
		bound := "-"
		if d.Bound != 0 {
			bound = fmt.Sprintf("%.2f", d.Bound)
		}
		fmt.Printf("%-15s %-34s %-8s %12.5g [%11.5g %11.5g] %12.5g [%11.5g %11.5g] %+8.3f %5s  %s\n",
			w, d.Name, d.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, worse, bound, status)
	}
	fmt.Printf("%-15s %-34s %-8s %12s [%11s %11s] %12s [%11s %11s] %8s %5s  %s\n",
		"workload", "metric", "unit", "a median", "q1", "q3", "b median", "q1", "q3", "worse", "bound", "status")
	for _, w := range mf.Workloads {
		for _, d := range mf.EndToEnd {
			sa, sb := a.EndToEnd[w.Name][d.Name], b.EndToEnd[w.Name][d.Name]
			if sa != nil && sb != nil {
				row(w.Name, d, sa, sb)
			}
		}
		for _, d := range mf.PerLayer {
			sa, sb := a.PerLayer[w.Name][d.Name], b.PerLayer[w.Name][d.Name]
			if sa != nil && sb != nil && (sa.Median != 0 || sb.Median != 0) {
				row(w.Name, d, sa, sb)
			}
		}
	}
	if a.Failed != 0 || b.Failed != 0 {
		fmt.Printf("failed operations: a %d of %d, b %d of %d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
		anyWorse = anyWorse || b.Failed > a.Failed
	}
	return anyWorse
}

// execAB runs the two binaries interleaved and returns the two run files.
func execAB(mf *manifest, binA, binB, dir string, n int, seed int64, workloads []string) (string, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	files := [2]string{filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")}
	bins := [2]string{binA, binB}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // alternate which side runs first
				cmd := exec.Command(bins[side], "-workload", w, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(mf.RunSeconds), "-trace", "0", "-out", files[side])
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return "", "", fmt.Errorf("%s %s: %w", bins[side], w, err)
				}
			}
		}
	}
	return files[0], files[1], nil
}

func main() {
	var (
		manifestPath = flag.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
		doSummary    = flag.Bool("summary", false, "print a JSON summary of each run file")
		doExec       = flag.Bool("exec", false, "run -a and -b interleaved, then compare")
		binA         = flag.String("a", "", "-exec: prebuilt benchmark binary of the parent")
		binB         = flag.String("b", "", "-exec: prebuilt benchmark binary of the change")
		n            = flag.Int("n", 10, "-exec: pairs of runs per workload")
		seed         = flag.Int64("seed", 1, "-exec: workload seed")
		dir          = flag.String("dir", filepath.Join(".bench_build", "compare"), "-exec: directory for a.jsonl and b.jsonl")
		only         = flag.String("workloads", "", "-exec: comma-separated workloads (default all)")
	)
	flag.Parse()
	if err := run(*manifestPath, *doSummary, *doExec, *binA, *binB, *n, *seed, *dir, *only); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
}

func run(manifestPath string, doSummary, doExec bool, binA, binB string, n int, seed int64, dir, only string) error {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	load := func(path string) (*section, error) {
		recs, err := readRecords(path)
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("%s: no runs", path)
		}
		return summarizeFile(&mf, recs), nil
	}

	files := flag.Args()
	switch {
	case doSummary:
		out := map[string]*section{}
		for _, f := range files {
			sec, err := load(f)
			if err != nil {
				return err
			}
			out[strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))] = sec
		}
		data, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	case doExec:
		var workloads []string
		for _, w := range mf.Workloads {
			if only == "" || strings.Contains(","+only+",", ","+w.Name+",") {
				workloads = append(workloads, w.Name)
			}
		}
		if binA == "" || binB == "" || len(workloads) == 0 {
			return fmt.Errorf("-exec needs -a, -b and at least one known workload")
		}
		fa, fb, err := execAB(&mf, binA, binB, dir, n, seed, workloads)
		if err != nil {
			return err
		}
		files = []string{fa, fb}
	}
	if len(files) != 2 {
		return fmt.Errorf("usage: compare a.jsonl b.jsonl | compare -exec -a binA -b binB | compare -summary runs.jsonl...")
	}
	a, err := load(files[0])
	if err != nil {
		return err
	}
	b, err := load(files[1])
	if err != nil {
		return err
	}
	if compare(&mf, a, b) {
		os.Exit(1)
	}
	return nil
}
