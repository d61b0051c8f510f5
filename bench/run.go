package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// A workload is one set of inputs the benchmark runs. Its timed unit is a
// pass: one execution of its fixed list of operations, in the same order
// every pass. A run repeats the pass until --seconds of wall-clock have
// gone by.
//
// How timings are estimated. Every operation's time is divided by how much
// the host was slowed while it ran (see probe.go), and an operation counts
// at the median of its normalised repetitions over the run's passes.
// wall_s and the per-layer latencies are built from those.
type workload interface {
	// setup makes the inputs from the seed and brings the system to the
	// point where a pass can start. It is called several times in a run
	// (setup_s is the median) and must release what an earlier call built.
	setup(seed int64, sz sizes) error
	// pass runs every operation once, recording each through rec in the
	// same order every pass.
	pass(rec *recorder) error
	// layers runs after the passes of a traced run: it may take further
	// measurements (microbenchmarks of layers that cannot be timed from
	// outside a run) and sets the workload's per-layer metrics.
	layers(lc *layerContext) error
	// verify runs once after the timed section and checks outputs that
	// are too costly to check inline; failures are recorded through rec.
	verify(rec *recorder) error
	close()
}

// A resetter puts the system back into its start-of-pass state (fresh
// server, empty caches) between passes; the time is not part of any pass.
type resetter interface {
	reset() error
}

// sizes scales a workload. The benchmark always runs full; the smoke test
// runs tiny.
type sizes struct {
	tiny    bool
	workers int    // at most min(2, nproc) goroutines or connections
	scratch string // directory for temporary files, inside the checkout
}

func defaultSizes(tiny bool) sizes {
	return sizes{tiny: tiny, workers: min(2, runtime.NumCPU())}
}

// recorder collects what one pass did.
type recorder struct {
	tr *tracer // nil on an untraced pass
	// clients is how many operations the pass has in flight at a time
	// (1 unless the pass sets it).
	clients   int
	lines     []*probeLine // one per worker goroutine
	ops       []opSample   // in the pass's fixed operation order
	attempted int
	failed    int
	notes     []string // first few failure messages
	warnings  []string // reported, not failures (golden mismatches)
}

// opSample is one operation as the client saw it.
type opSample struct {
	worker     int
	start, end time.Time
}

// expect sizes the pass: n operations, recorded by index.
func (r *recorder) expect(n int) { r.ops = make([]opSample, n) }

// start probes the host if worker's latest probe is stale and returns the
// operation's start time.
func (r *recorder) start(worker int) time.Time {
	r.lines[worker].refresh()
	return time.Now()
}

// done records operation i, started at t0 on worker and finished now;
// err != nil counts it as failed.
func (r *recorder) done(i, worker int, t0 time.Time, err error) {
	r.ops[i] = opSample{worker: worker, start: t0, end: time.Now()}
	if err != nil {
		r.fail(err)
	}
}

func (r *recorder) warn(msg string) { r.warnings = append(r.warnings, msg) }

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, err.Error())
	}
}

// passStat is the measurement of one pass: every operation's raw latency in
// ms and the mean slowdown of the host probes around it.
type passStat struct {
	n       int // position among the run's passes
	rawMS   []float64
	slow    []float64
	clients int
	bytes   uint64 // runtime.MemStats.TotalAlloc delta, the probes' share taken out
	mallocs uint64
}

// probeAllocs is what the allocating half of a host probe allocates: the
// same every time, so the fewest of three.
var probeAllocs = sync.OnceValues(func() (mallocs, bytes uint64) {
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	line := &probeLine{alloc: true}
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		line.hostProbe()
		runtime.ReadMemStats(&after)
		mallocs, bytes = min(mallocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
})

// measure runs one pass of w through a fresh recorder.
func measure(n int, w func(*recorder) error, tr *tracer, lines []*probeLine) (passStat, *recorder, error) {
	rec := &recorder{tr: tr, clients: 1, lines: lines}
	var probeMallocs, probeBytes uint64
	if lines[0].alloc {
		probeMallocs, probeBytes = probeAllocs()
	}
	runtime.GC()
	probes := func() (n uint64) {
		for _, l := range lines {
			n += uint64(len(l.samples))
		}
		return n
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	probesBefore := probes()
	if err := w(rec); err != nil {
		return passStat{}, nil, err
	}
	runtime.ReadMemStats(&after)
	taken := probes() - probesBefore
	for _, l := range lines[:rec.clients] {
		l.refresh() // the probes after the last operation
	}
	ps := passStat{n: n, clients: rec.clients,
		bytes:   after.TotalAlloc - before.TotalAlloc - taken*probeBytes,
		mallocs: after.Mallocs - before.Mallocs - taken*probeMallocs}
	for _, op := range rec.ops {
		ps.rawMS = append(ps.rawMS, float64(op.end.Sub(op.start))/1e6)
		ps.slow = append(ps.slow, lines[op.worker].around(op.start, op.end))
	}
	rec.attempted = len(rec.ops)
	return ps, rec, nil
}

// opTimes is every operation's normalised latency in ms: the median over
// the passes of raw time over host slowdown.
func opTimes(passes []passStat) []float64 {
	out := make([]float64, len(passes[0].rawMS))
	reps := make([]float64, len(passes))
	for i := range out {
		for k := range passes {
			reps[k] = passes[k].rawMS[i] / passes[k].slow[i]
		}
		out[i] = median(reps)
	}
	return out
}

// passSeconds is the wall-clock of one pass on a quiet host: the sum of the
// operations' normalised times over the clients that share them.
func passSeconds(passes []passStat) float64 {
	var sum float64
	for _, ms := range opTimes(passes) {
		sum += ms
	}
	return sum / 1e3 / float64(passes[0].clients)
}

// allocMB is the median over passes of the bytes a pass allocated.
func allocMB(passes []passStat) float64 {
	var mbs []float64
	for _, p := range passes {
		mbs = append(mbs, float64(p.bytes)/1e6)
	}
	return median(mbs)
}

// layerContext is what a workload's layers step works from.
type layerContext struct {
	self     map[string]*selfTime
	untraced []passStat
	lines    []*probeLine
	m        map[string]float64
}

// measure runs one more pass (untraced, outside the timed section).
func (lc *layerContext) measure(pass func(*recorder) error) (passStat, error) {
	ps, rec, err := measure(-1, pass, nil, lc.lines)
	if err == nil && rec.failed > 0 {
		err = fmt.Errorf("%s", rec.notes[0])
	}
	return ps, err
}

// set stores a per-layer metric; a name missing from perLayerDefs is a bug.
func (lc *layerContext) set(name string, v float64) {
	if _, ok := lc.m[name]; !ok {
		panic("bench: per-layer metric not declared in names.go: " + name)
	}
	lc.m[name] = v
}

// spanSeconds is the self time per pass of the spans called name.
func (lc *layerContext) spanSeconds(name string) float64 {
	if r := lc.self[name]; r != nil {
		return float64(r.SelfNS) / 1e9
	}
	return 0
}

// spanCount is the number of spans called name per pass.
func (lc *layerContext) spanCount(name string) float64 {
	if r := lc.self[name]; r != nil {
		return r.Count
	}
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	sz       sizes
	log      io.Writer
}

// Set-up is repeated at least minSetups times, then more while it is
// cheap, so that a set-up of a few milliseconds is a median over many
// samples.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

func runWorkload(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	defer w.close()
	_, alloc := w.(allocating)
	lines := make([]*probeLine, cfg.sz.workers)
	for i := range lines {
		lines[i] = &probeLine{alloc: alloc}
	}

	// Set-up, repeated; each repetition has probes on both sides.
	type setupStat struct{ rawMS, slow float64 }
	var setups []setupStat
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		runtime.GC()
		lines[0].refresh()
		t0 := time.Now()
		if err := w.setup(cfg.seed, cfg.sz); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		t1 := time.Now()
		lines[0].refresh()
		setups = append(setups, setupStat{float64(t1.Sub(t0)) / 1e6, lines[0].around(t0, t1)})
		spent += t1.Sub(t0)
		if cfg.sz.tiny {
			break
		}
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.sz.workers)
	}
	total := &recorder{}
	var untraced, traced []passStat
	begin := time.Now()
	for n := 0; ; n++ {
		// A traced run alternates untraced and traced passes, so that
		// both sides of trace_overhead_ratio see the same host.
		tracedPass := cfg.trace && n%2 == 1
		if n > 0 {
			if r, ok := w.(resetter); ok {
				if err := r.reset(); err != nil {
					return nil, fmt.Errorf("%s: reset: %w", cfg.workload, err)
				}
			}
		}
		var passTr *tracer
		if tracedPass {
			passTr = tr
			tr.startPass(n)
		}
		ps, rec, err := measure(n, w.pass, passTr, lines)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", cfg.workload, n, err)
		}
		if tracedPass {
			traced = append(traced, ps)
		} else {
			untraced = append(untraced, ps)
		}
		total.attempted += rec.attempted
		total.failed += rec.failed
		total.notes = append(total.notes, rec.notes...)
		if (!cfg.trace || tracedPass) && time.Since(begin).Seconds() >= cfg.seconds {
			break
		}
	}
	if err := w.verify(total); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", cfg.workload, err)
	}

	res := &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed,
		Metrics: map[string]metricValue{}}
	for _, n := range total.notes {
		fmt.Fprintf(cfg.log, "FAILED: %s\n", n)
	}
	for _, n := range total.warnings {
		fmt.Fprintf(cfg.log, "WARNING: %s\n", n)
	}
	var slow, rawS []float64 // host slowdown and raw pass time, for the log
	for _, p := range untraced {
		var raw float64
		slow = append(slow, p.slow...)
		for _, ms := range p.rawMS {
			raw += ms
		}
		rawS = append(rawS, raw/1e3/float64(p.clients))
	}
	fmt.Fprintf(cfg.log, "%s seed %d: %d set-ups, %d passes of %d operations; raw pass %.3fs (median), host slowdown %.2fx (median over operations)\n",
		cfg.workload, cfg.seed, len(setups), len(untraced), len(untraced[0].rawMS), median(rawS), median(slow))

	if !cfg.trace {
		var setupS []float64
		for _, s := range setups {
			setupS = append(setupS, s.rawMS/s.slow/1e3)
		}
		e2e := map[string]float64{
			"setup_s":     median(setupS),
			"wall_s":      passSeconds(untraced),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{Value: e2e[d.Name], Unit: d.Unit}
		}
		return res, nil
	}

	byN := map[int]*passStat{}
	for i := range traced {
		byN[traced[i].n] = &traced[i]
	}
	self := tr.selfTimes(func(pass, op int) float64 { return byN[pass].slow[op] })
	lc := &layerContext{self: self, untraced: untraced, lines: lines, m: map[string]float64{}}
	for _, d := range perLayerDefs {
		lc.m[d.Name] = 0
	}
	if err := w.layers(lc); err != nil {
		return nil, fmt.Errorf("%s: layers: %w", cfg.workload, err)
	}
	lc.set("trace_overhead_ratio", passSeconds(traced)/passSeconds(untraced))
	lc.set("proc.host_slowdown", median(slow))
	lc.set("proc.alloc_mb", allocMB(untraced))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lc.set("proc.gc_cpu_fraction", ms.GCCPUFraction)
	lc.set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	for _, d := range perLayerDefs {
		res.Metrics[d.Name] = metricValue{Value: lc.m[d.Name], Unit: d.Unit}
	}
	reportSelfTimes(cfg.log, self, passSeconds(traced)*float64(traced[0].clients))
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set (Linux reports kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median averages the two middle samples of an even count.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of x (0 for no samples).
func percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
