package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"wavescalar/internal/harness"
	"wavescalar/internal/isa"
	"wavescalar/internal/mem"
	"wavescalar/internal/noc"
	"wavescalar/internal/serve"
	"wavescalar/internal/tagtable"
	"wavescalar/internal/waveorder"
)

// noc, mem, waveorder and tagtable sit inside wavecache.Run and cannot be
// timed from outside during a run. These microbenchmarks drive their public
// functions with a seeded synthetic stream as long as the count the real
// run reported (capped, since ns/op does not depend on it), and the share
// derived from them is an estimate, labelled as one.

// microCap bounds a microbenchmark's operations; microRing is the length
// of the pre-generated stream it cycles through.
const (
	microCap  = 4 << 20
	microRing = 1 << 16
)

func microOps(count float64) int {
	return max(1, min(int(count), microCap))
}

// microNoC times Network.Send on the default 4x4 machine: seven messages in
// ten stay inside a cluster, as placement locality keeps most traffic on
// the cheap levels.
func microNoC(seed int64, count float64) (nsPerOp float64, err error) {
	n, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	type msg struct{ src, dst noc.Loc }
	ring := make([]msg, microRing)
	loc := func(cluster int) noc.Loc {
		return noc.Loc{Cluster: cluster, Domain: rng.Intn(4), Pod: rng.Intn(4)}
	}
	for i := range ring {
		c := rng.Intn(16)
		ring[i].src = loc(c)
		if rng.Intn(10) >= 7 {
			c = rng.Intn(16)
		}
		ring[i].dst = loc(c)
	}
	ops := microOps(count)
	var sink int64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		m := &ring[i&(microRing-1)]
		sink += n.Send(m.src, m.dst, int64(i))
	}
	d := time.Since(t0)
	if sink == 0 {
		return 0, fmt.Errorf("noc microbenchmark: every latency was 0")
	}
	return float64(d) / float64(ops), nil
}

// microMem times System.Access over 16 L1s: strided walks through a working
// set four times one L1, three accesses in ten are writes.
func microMem(seed int64, count float64) (nsPerOp float64, err error) {
	cfg := mem.DefaultSystemConfig(16)
	s, err := mem.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	type acc struct {
		l1    int
		addr  int64
		write bool
	}
	ring := make([]acc, microRing)
	span := 4 * cfg.L1.SizeWords
	addr := int64(0)
	for i := range ring {
		if rng.Intn(8) == 0 {
			addr = rng.Int63n(span)
		} else {
			addr = (addr + 1 + rng.Int63n(4)) % span
		}
		ring[i] = acc{l1: rng.Intn(16), addr: addr, write: rng.Intn(10) < 3}
	}
	ops := microOps(count)
	var sink int64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		a := &ring[i&(microRing-1)]
		sink += s.Access(a.l1, a.addr, a.write).Latency
	}
	d := time.Since(t0)
	if sink == 0 {
		return 0, fmt.Errorf("mem microbenchmark: every latency was 0")
	}
	return float64(d) / float64(ops), nil
}

// microWaveOrder times Engine.Submit: consecutive waves of one context,
// each a four-slot chain whose requests arrive in a seeded order, so the
// engine buffers, links and issues as it does behind a store buffer.
func microWaveOrder(seed int64, count float64) (nsPerOp float64, err error) {
	issued := 0
	e := waveorder.NewEngine(0, func(*waveorder.Request) { issued++ })
	rng := rand.New(rand.NewSource(seed))
	kinds := [4]isa.MemKind{isa.MemLoad, isa.MemStore, isa.MemLoad, isa.MemNop}
	var reqs [4]waveorder.Request
	orders := make([][4]int, 64)
	for i := range orders {
		copy(orders[i][:], rng.Perm(4))
	}
	ops := microOps(count) &^ 3
	ops = max(ops, 4)
	t0 := time.Now()
	for w := 0; w < ops/4; w++ {
		for _, k := range orders[w&63] {
			reqs[k] = waveorder.Request{Wave: uint32(w), Kind: kinds[k], Seq: int32(k),
				Pred: int32(k) - 1, Succ: int32(k) + 1, Addr: int64(w*4 + k)}
			if k == 0 {
				reqs[k].Pred = isa.SeqStart
			}
			if k == 3 {
				reqs[k].Succ = isa.SeqEnd
			}
			if err := e.Submit(&reqs[k]); err != nil {
				return 0, err
			}
		}
	}
	d := time.Since(t0)
	if issued != ops {
		return 0, fmt.Errorf("waveorder microbenchmark: issued %d of %d requests", issued, ops)
	}
	return float64(d) / float64(ops), nil
}

// microTagTable times one Put, one Get and one Delete against a table that
// holds 64 live entries, the population of a PE's matching table.
func microTagTable(seed int64, count float64) (nsPerOp float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, microRing)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	const live = 64
	var t tagtable.Table
	for i := 0; i < live; i++ {
		t.Put(keys[i], int64(i))
	}
	ops := microOps(count)
	missing := 0
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		t.Put(keys[(i+live)&(microRing-1)], int64(i))
		old := keys[i&(microRing-1)]
		if _, ok := t.Get(old); !ok {
			missing++
		}
		t.Delete(old)
	}
	d := time.Since(t0)
	if missing != 0 {
		return 0, fmt.Errorf("tagtable microbenchmark: %d live keys not found", missing)
	}
	return float64(d) / float64(ops), nil
}

// microCellCache times CellCache.Put and Get of a simulate result in a
// fresh directory under dir.
func microCellCache(dir string, n int) (getUS, putUS float64, err error) {
	dir, err = os.MkdirTemp(dir, "cellcache-micro-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cc, err := harness.NewCellCache(dir)
	if err != nil {
		return 0, 0, err
	}
	val := serve.SimResult{Value: 123456789, UsefulInstrs: 54365, Cycles: 60242, AIPC: 0.9,
		Fired: 69068, Tokens: 98152, PEsUsed: 97, MemoryOps: 1234, NetMessages: 56789}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = harness.CacheKey("bench-micro", fmt.Sprint(i))
	}
	t0 := time.Now()
	for _, k := range keys {
		if err := cc.Put(k, val); err != nil {
			return 0, 0, err
		}
	}
	put := time.Since(t0)
	t0 = time.Now()
	for _, k := range keys {
		var got serve.SimResult
		if !cc.Get(k, &got) || got != val {
			return 0, 0, fmt.Errorf("cellcache microbenchmark: entry %s did not read back", k)
		}
	}
	get := time.Since(t0)
	return float64(get) / 1e3 / float64(n), float64(put) / 1e3 / float64(n), nil
}

// microEncode times encoding one SimulateResponse the way the server's
// writeJSON does (indented encoding/json), which is unexported.
func microEncode(n int) (us float64, err error) {
	resp := serve.SimulateResponse{Workload: "inline", Engines: harness.EngineSetVersion,
		Result:    serve.SimResult{Value: 123456789, UsefulInstrs: 54365, Cycles: 60242, AIPC: 0.9, Fired: 69068, Tokens: 98152, PEsUsed: 97},
		ElapsedMS: 1.234}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&resp); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(n), nil
}
