package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// A span is one timed call from the benchmark into a layer of the system.
// Spans are recorded only by the benchmark's own code, around its own calls
// (spans inside the program are a later change, ROADMAP item 5), kept in
// memory, and written out when the run ends.
type span struct {
	Name    string `json:"name"`     // "<layer>.<call>", the layer is the package name
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index within the same worker, -1 for a root
	Op      int    `json:"op"`     // workload-operation id shared by one operation's spans
	Pass    int    `json:"pass"`   // which traced pass of the run
	Worker  int    `json:"worker"`
}

// tracer holds one span buffer per worker goroutine, so recording takes no
// lock. A nil *workerTrace disables recording: untraced passes hand nil to
// the same code path.
type tracer struct {
	t0      time.Time
	workers []*workerTrace
}

type workerTrace struct {
	t0     time.Time
	id     int
	pass   int
	spans  []span
	parent int // innermost open span, -1 when none
}

func newTracer(workers int) *tracer {
	t := &tracer{t0: time.Now()}
	for i := 0; i < workers; i++ {
		t.workers = append(t.workers, &workerTrace{t0: t.t0, id: i, parent: -1})
	}
	return t
}

// startPass numbers the spans recorded from now on; no pass is running.
func (t *tracer) startPass(n int) {
	for _, w := range t.workers {
		w.pass = n
	}
}

// worker returns worker i's buffer, or nil when tracing is off.
func (t *tracer) worker(i int) *workerTrace {
	if t == nil {
		return nil
	}
	return t.workers[i]
}

// begin opens a span under the innermost open one and returns its index.
func (w *workerTrace) begin(name string, op int) int {
	if w == nil {
		return -1
	}
	w.spans = append(w.spans, span{Name: name, StartNS: int64(time.Since(w.t0)),
		Parent: w.parent, Op: op, Pass: w.pass, Worker: w.id})
	w.parent = len(w.spans) - 1
	return w.parent
}

func (w *workerTrace) end(i int) {
	if w == nil {
		return
	}
	w.spans[i].EndNS = int64(time.Since(w.t0))
	w.parent = w.spans[i].Parent
}

// add records an already-measured interval ending now as a child of the
// innermost open span: how a duration the server reports about itself is
// placed inside the client-side span that waited for it.
func (w *workerTrace) add(name string, op int, d time.Duration) {
	if w == nil {
		return
	}
	end := int64(time.Since(w.t0))
	w.spans = append(w.spans, span{Name: name, StartNS: end - int64(d), EndNS: end,
		Parent: w.parent, Op: op, Pass: w.pass, Worker: w.id})
}

// selfTime is one row of the per-layer table. A span's self time is its
// duration minus the part its child spans cover, divided by the host
// slowdown of the operation it belongs to. Every traced pass runs the same
// operations, so a name's self time is summed over operations with each
// operation at the median of its passes — the estimator the end-to-end
// timings use.
type selfTime struct {
	Name   string
	Count  float64 // calls per pass
	SelfNS int64
}

// selfTimes aggregates the spans; slowdown(pass, op) is the host slowdown
// around that operation.
func (t *tracer) selfTimes(slowdown func(pass, op int) float64) map[string]*selfTime {
	type opKey struct {
		name string
		op   int
	}
	perPass := map[opKey]map[int]float64{} // (name, op) -> pass -> self time
	counts := map[string]int{}
	passes := map[int]bool{}
	for _, w := range t.workers {
		child := make([]int64, len(w.spans))
		for _, s := range w.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.EndNS - s.StartNS
			}
		}
		for i, s := range w.spans {
			k := opKey{s.Name, s.Op}
			if perPass[k] == nil {
				perPass[k] = map[int]float64{}
			}
			perPass[k][s.Pass] += float64(s.EndNS-s.StartNS-child[i]) / slowdown(s.Pass, s.Op)
			counts[s.Name]++
			passes[s.Pass] = true
		}
	}
	out := map[string]*selfTime{}
	for k, byPass := range perPass {
		reps := make([]float64, 0, len(byPass))
		for _, ns := range byPass {
			reps = append(reps, ns)
		}
		r := out[k.name]
		if r == nil {
			r = &selfTime{Name: k.name, Count: float64(counts[k.name]) / float64(len(passes))}
			out[k.name] = r
		}
		r.SelfNS += int64(median(reps))
	}
	return out
}

// layerOf is the layer a span name belongs to: the text before its first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// reportSelfTimes prints self time and call counts by span name and by
// layer, and the share of the traced pass the layers account for: wall is
// the traced pass's normalised wall-clock times its clients. The "bench"
// layer is the benchmark's own bookkeeping between calls.
func reportSelfTimes(w io.Writer, rows map[string]*selfTime, wall float64) {
	names := make([]string, 0, len(rows))
	layers := map[string]int64{}
	var layerSum int64
	for n, r := range rows {
		names = append(names, n)
		layers[layerOf(n)] += r.SelfNS
		if layerOf(n) != "bench" {
			layerSum += r.SelfNS
		}
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].SelfNS > rows[names[j]].SelfNS })
	total := wall * 1e9
	fmt.Fprintf(w, "traced run: self time by span, per pass (%.3fs)\n", wall)
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "  %-28s self %9.4fs %5.1f%%  calls %.0f\n", n, float64(r.SelfNS)/1e9, 100*float64(r.SelfNS)/total, r.Count)
	}
	lnames := make([]string, 0, len(layers))
	for l := range layers {
		lnames = append(lnames, l)
	}
	sort.Slice(lnames, func(i, j int) bool { return layers[lnames[i]] > layers[lnames[j]] })
	fmt.Fprintln(w, "traced run: self time by layer")
	for _, l := range lnames {
		fmt.Fprintf(w, "  %-28s self %9.4fs %5.1f%%\n", l, float64(layers[l])/1e9, 100*float64(layers[l])/total)
	}
	fmt.Fprintf(w, "  layers other than bench cover %.1f%% of the traced pass\n", 100*float64(layerSum)/total)
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	var all []span
	for _, w := range t.workers {
		all = append(all, w.spans...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
