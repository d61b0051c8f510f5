package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wavescalar/internal/harness"
	"wavescalar/internal/parallel"
	"wavescalar/internal/placement"
	"wavescalar/internal/serve"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/wavecache"
)

// serveWorkload is serve-mix: an in-process serve.New (rate limiting off,
// fresh cache directory, defaults otherwise) behind a loopback listener,
// driven closed-loop by min(2, nproc) serve.Clients that share one
// pre-generated schedule of /v1/simulate requests. Callers of waved are
// scripts that wait for each reply, hence the closed loop. The mix:
//
//	20% cold   — program never seen by this server: compile + simulate + cache put
//	50% warm   — program from a 64-program pool (well under MaxCompiled=256)
//	             with a grid/memmode/policy combination not yet requested:
//	             compile-cache hit + simulate + cache put
//	30% replay — exact repeat of an earlier request: idempotency-cache get
//
// so the cell cache sees writes beside reads and the compile cache hits
// beside misses. Every pass starts a fresh server on an empty cache
// directory. One request is one operation.
type serveWorkload struct {
	sz     sizes
	srcs   []string
	sched  []schedReq
	server *mixServer

	// first holds pass 0's result of every request; later passes must
	// repeat it, and verify compares it with the direct harness.
	first []*serve.SimResult
	// handlerShare is, per request, the server-reported share of the
	// client-side latency on every pass (a ratio, so the host's state
	// cancels); layers splits each request's normalised latency by it.
	handlerShare     [][]float64
	cached, answered int // the latest pass
}

const (
	classCold = iota
	classWarm
	classReplay
)

// servePassRequests is the schedule length: with 2 clients a pass takes
// about 3 s, so a run times 3000-4000 requests and p99 has 30-40 samples
// beyond it.
const (
	servePassRequests = 1000
	servePool         = 64
)

// The programs the requests carry are drawn by corpusSeed, for the reason
// given there. --seed draws the schedule: the order of classes, which pool
// program a warm request asks for, every grid/memmode/policy combination,
// and what a replay repeats.

type schedReq struct {
	class int
	req   serve.SimulateRequest
	prog  int // index into srcs
	// dep is the request that must have been answered first: the cold
	// request of a warm request's program, the original of a replay.
	dep int
	// orig is the request whose result this one must equal (itself unless
	// a replay).
	orig int
}

// mixServer is one waved instance and its clients.
type mixServer struct {
	srv      *serve.Server
	hs       *http.Server
	cacheDir string
	baseURL  string
	clients  []*serve.Client
}

func startMixServer(sz sizes) (*mixServer, error) {
	dir, err := os.MkdirTemp(sz.scratch, "serve-cache-")
	if err != nil {
		return nil, err
	}
	cfg := serve.DefaultConfig()
	cfg.TenantRate = 0 // rate limiting off
	cfg.CacheDir = dir
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ms := &mixServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, cacheDir: dir,
		baseURL: "http://" + ln.Addr().String()}
	go ms.hs.Serve(ln) // returns when stop closes the listener
	for i := 0; i < sz.workers; i++ {
		ms.clients = append(ms.clients, &serve.Client{BaseURL: ms.baseURL, Tenant: fmt.Sprintf("bench-%d", i),
			HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}})
	}
	return ms, nil
}

func (ms *mixServer) stop() {
	for _, c := range ms.clients {
		c.HTTPClient.CloseIdleConnections()
	}
	ms.hs.Close()
	ms.srv.Drain(time.Second) // nothing is in flight; stops the server's goroutines
	os.RemoveAll(ms.cacheDir)
}

func (w *serveWorkload) setup(seed int64, sz sizes) error {
	w.close()
	w.sz = sz
	n := servePassRequests
	if sz.tiny {
		n = 40
	}
	rng := rand.New(rand.NewSource(seed))
	nCold, nWarm := n/5, n/2
	w.srcs = w.srcs[:0]
	for _, spec := range testprogs.CorpusSpecs(nCold, corpusSeed) {
		src, err := testprogs.GenerateSpec(spec)
		if err != nil {
			return err
		}
		w.srcs = append(w.srcs, src)
	}

	classes := make([]int, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < nCold:
			classes = append(classes, classCold)
		case i < nCold+nWarm:
			classes = append(classes, classWarm)
		default:
			classes = append(classes, classReplay)
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for i, c := range classes { // a warm or replay request needs a cold one before it
		if c == classCold {
			classes[0], classes[i] = classes[i], classes[0]
			break
		}
	}

	grids := []string{"2x2", "4x2", "3x3", "4x4"}
	modes := []string{"wave-ordered", "serialized", "ideal", "spec"}
	// profile-feedback runs a profiling pass and a 4096-move placement
	// search per request (~180 ms against ~7 ms for a simulation): with it
	// in the mix the workload would measure placemodel, which exp-suite's
	// E14 already covers.
	policies := slices.DeleteFunc(placement.Names(), func(p string) bool { return p == "profile-feedback" })
	type combo struct{ g, m, p int }
	used := make([]map[combo]bool, nCold)
	coldAt := make([]int, 0, nCold) // schedule index of each program's cold request
	fresh := func(prog int) serve.SimulateRequest {
		if used[prog] == nil {
			used[prog] = map[combo]bool{}
		}
		for {
			c := combo{rng.Intn(len(grids)), rng.Intn(len(modes)), rng.Intn(len(policies))}
			if !used[prog][c] {
				used[prog][c] = true
				return serve.SimulateRequest{Source: w.srcs[prog], Grid: grids[c.g], MemMode: modes[c.m], Policy: policies[c.p]}
			}
		}
	}
	w.sched = w.sched[:0]
	for i, c := range classes {
		var r schedReq
		switch c {
		case classCold:
			prog := len(coldAt)
			coldAt = append(coldAt, i)
			r = schedReq{class: c, prog: prog, req: fresh(prog), dep: -1, orig: i}
		case classWarm:
			prog := rng.Intn(min(len(coldAt), servePool))
			r = schedReq{class: c, prog: prog, req: fresh(prog), dep: coldAt[prog], orig: i}
		case classReplay:
			o := w.sched[rng.Intn(i)].orig
			r = schedReq{class: c, prog: w.sched[o].prog, req: w.sched[o].req, dep: o, orig: o}
		}
		w.sched = append(w.sched, r)
	}
	w.first = make([]*serve.SimResult, n)
	w.handlerShare = make([][]float64, n)

	var err error
	w.server, err = startMixServer(sz)
	return err
}

func (w *serveWorkload) reset() error {
	w.server.stop()
	var err error
	w.server, err = startMixServer(w.sz)
	return err
}

func (w *serveWorkload) close() {
	if w.server != nil {
		w.server.stop()
		w.server = nil
	}
}

// reqOutcome is what one request of a pass returned.
type reqOutcome struct {
	clientMS, handlerMS float64
	result              *serve.SimResult
	cached              bool
	err                 error
}

func (w *serveWorkload) pass(rec *recorder) error {
	rec.clients = len(w.server.clients)
	n := len(w.sched)
	rec.expect(n)
	out := make([]reqOutcome, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c, client := range w.server.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wt := rec.tr.worker(c)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r := &w.sched[i]
				if r.dep >= 0 {
					s := wt.begin("bench.depwait", i)
					<-done[r.dep]
					wt.end(s)
				}
				o := &out[i]
				t0 := rec.start(c)
				s := wt.begin("serve.transport", i)
				resp, apiErr, err := client.Simulate(context.Background(), r.req)
				d := time.Since(t0)
				switch {
				case err != nil:
					o.err = fmt.Errorf("request %d: %w", i, err)
				case apiErr != nil:
					o.err = fmt.Errorf("request %d: %d %s: %s", i, apiErr.Status, apiErr.Code, apiErr.Error)
				default:
					o.result, o.cached, o.handlerMS = &resp.Result, resp.Cached, resp.ElapsedMS
					wt.add("serve.handler", i, time.Duration(resp.ElapsedMS*1e6))
				}
				wt.end(s)
				rec.done(i, c, t0, nil) // failures are counted below
				o.clientMS = float64(d) / 1e6
				close(done[i])
			}
		}()
	}
	wg.Wait()

	w.cached, w.answered = 0, 0
	for i := range out {
		o, r := &out[i], &w.sched[i]
		err := o.err
		if err == nil {
			w.answered++
			if o.cached {
				w.cached++
			}
			w.handlerShare[i] = append(w.handlerShare[i], min(o.handlerMS/o.clientMS, 1))
			// A replay must equal its original, and every pass the first.
			if orig := out[r.orig].result; orig != nil && *orig != *o.result {
				err = fmt.Errorf("request %d: body %+v differs from request %d's %+v", i, *o.result, r.orig, *orig)
			} else if w.first[i] == nil {
				w.first[i] = o.result
			} else if *w.first[i] != *o.result {
				err = fmt.Errorf("request %d: body %+v differs from the first pass's %+v", i, *o.result, *w.first[i])
			}
		}
		if err != nil {
			rec.fail(err)
		}
	}
	return nil
}

// verify computes every distinct cell directly through the harness, the way
// a caller without the server would, and compares the served bodies.
func (w *serveWorkload) verify(rec *recorder) error {
	byProg := make([][]int, len(w.srcs))
	for i, r := range w.sched {
		if r.orig == i {
			byProg[r.prog] = append(byProg[r.prog], i)
		}
	}
	var mu sync.Mutex
	return parallel.ForEach(w.sz.workers, len(byProg), func(p int) error {
		c, err := harness.CompileSource("inline", w.srcs[p], harness.DefaultCompileOptions())
		if err != nil {
			return err
		}
		for _, i := range byProg[p] {
			got := w.first[i]
			if got == nil {
				continue // the request failed; already counted
			}
			want, err := directSimulate(c, w.sched[i].req)
			if err != nil {
				return err
			}
			if want != *got {
				mu.Lock()
				rec.fail(fmt.Errorf("request %d: served %+v, direct harness %+v", i, *got, want))
				mu.Unlock()
			}
		}
		return nil
	})
}

// directSimulate is the reference for one request: the same cell run
// through the harness without the server.
func directSimulate(c *harness.Compiled, req serve.SimulateRequest) (serve.SimResult, error) {
	m := harness.DefaultMachineOptions()
	if _, err := fmt.Sscanf(req.Grid, "%dx%d", &m.GridW, &m.GridH); err != nil {
		return serve.SimResult{}, err
	}
	m.Policy = req.Policy
	m.MaxCycles = serve.DefaultConfig().MaxCycles
	cfg := m.WaveConfig()
	var err error
	if cfg.MemMode, err = wavecache.ParseMemoryMode(req.MemMode); err != nil {
		return serve.SimResult{}, err
	}
	pol, err := m.NewPolicy(c.Wave)
	if err != nil {
		return serve.SimResult{}, err
	}
	res, err := harness.RunWave(c, c.Wave, pol, cfg)
	if err != nil {
		return serve.SimResult{}, err
	}
	return serve.SimResult{
		Value: res.Value, UsefulInstrs: c.UsefulInstrs, Cycles: res.Cycles,
		AIPC:  harness.AIPC(c.UsefulInstrs, res.Cycles),
		Fired: res.Fired, Tokens: res.Tokens, Swaps: res.Swaps, Overflows: res.Overflows, PEsUsed: res.PEsUsed,
		MemoryOps: res.Order.Loads + res.Order.Stores, NetMessages: res.Net.Messages,
	}, nil
}

func (w *serveWorkload) layers(lc *layerContext) error {
	var class [3][]float64
	var handler, transport []float64
	reqMS := opTimes(lc.untraced)
	for i, ms := range reqMS {
		class[w.sched[i].class] = append(class[w.sched[i].class], ms)
		share := median(w.handlerShare[i])
		handler = append(handler, ms*share)
		transport = append(transport, ms*(1-share))
	}
	lc.set("serve.req_p50_ms", median(reqMS))
	lc.set("serve.req_p99_ms", percentile(reqMS, 0.99))
	lc.set("serve.cold_p50_ms", median(class[classCold]))
	lc.set("serve.warm_p50_ms", median(class[classWarm]))
	lc.set("serve.replay_p50_ms", median(class[classReplay]))
	lc.set("serve.handler_p50_ms", median(handler))
	lc.set("serve.transport_p50_ms", median(transport))
	lc.set("serve.cell_cache_hit_ratio", ratio(float64(w.cached), float64(w.answered)))

	// The server of the latest pass is still up: ask it for its counters.
	var st struct {
		CompiledHits uint64                 `json:"compiled_hits"`
		Tenants      []serve.TenantSnapshot `json:"tenants"`
	}
	resp, err := w.server.clients[0].HTTPClient.Get(w.server.baseURL + "/v1/stats?format=json")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var shed, limited float64
	for _, t := range st.Tenants {
		shed += float64(t.Shed)
		limited += float64(t.RateLimited)
	}
	lc.set("serve.shed", shed)
	lc.set("serve.rate_limited", limited)
	// Every request that misses the cell cache asks the compile cache.
	lc.set("serve.compile_cache_hit_ratio", ratio(float64(st.CompiledHits), float64(w.answered-w.cached)))

	us, err := microEncode(2000)
	if err != nil {
		return err
	}
	lc.set("serve.encode_us", us)
	getUS, putUS, err := microCellCache(w.sz.scratch, 300)
	if err != nil {
		return err
	}
	lc.set("harness.cellcache.get_us", getUS)
	lc.set("harness.cellcache.put_us", putUS)
	return nil
}
