package main

import (
	"fmt"

	"wavescalar/internal/harness"
)

// metricDef is one metric of BENCHMARK.json. bound is used by end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

var workloadDefs = []workloadDef{
	{"sim-kernels", "ten kernels, wave-ordered memory, one goroutine: only the simulator core works, so a compiler or serve change must not move it"},
	{"sim-memmodes", "memory-heavy kernels under serialized, ideal and spec: the same simulator used through its other queue and store-buffer paths"},
	{"compile-corpus", "a hundred generated programs plus the kernels through CompileSource at O0 and O1: compiler and reference interpreters work, the simulator does none"},
	{"exp-suite", "every experiment table on the reduced configuration with 2 workers: the researcher's path through parallel, arenas, ooo, interp, placement"},
	{"serve-mix", "closed-loop clients against an in-process waved, 20% cold 50% warm 30% replay: compile cache and cell cache hit beside miss"},
}

// endToEndDefs are the metrics a user of the system sees. Every one is
// defined, and never 0, on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the metrics of single layers (layer = package name).
// A metric a workload does not exercise reads 0 on that workload.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	defs := func(better, unit string, names []string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
		return out
	}
	lower := func(unit string, names ...string) []metricDef { return defs("lower", unit, names) }
	higher := func(unit string, names ...string) []metricDef { return defs("higher", unit, names) }
	var d []metricDef
	add := func(m ...[]metricDef) {
		for _, x := range m {
			d = append(d, x...)
		}
	}
	add(
		lower("s", "lang.parse_s", "lang.unroll_s", "lang.eval_s"),
		lower("count", "lang.src_lines"),
		lower("s", "cfgir.build_s", "cfgir.optimize_s", "cfgir.memopt_s"),
		lower("count", "cfgir.instrs_after"),
		higher("count", "cfgir.memops_eliminated"),
		lower("s", "wavec.compile_s"),
		lower("count", "wavec.instrs_out", "wavec.chain_slots", "wavec.chain_nops"),
		lower("s", "linear.compile_s", "linear.emulate_s"),
		higher("Minstr/s", "linear.emulate_minstr_per_s"),
		lower("s", "wavecache.run_s"),
		lower("ns", "wavecache.ns_per_token"),
		lower("count", "wavecache.fired", "wavecache.tokens", "wavecache.cycles", "wavecache.swaps", "wavecache.overflows"),
		lower("count", "wavecache.allocs_per_run"),
		lower("B", "wavecache.bytes_per_run"),
		higher("Minstr/s", "wavecache.mfired_per_s", "wavecache.wave-ordered.mfired_per_s",
			"wavecache.serialized.mfired_per_s", "wavecache.ideal.mfired_per_s", "wavecache.spec.mfired_per_s"),
		higher("instr/cycle", "wavecache.aipc_geomean"),
		lower("count", "wavecache.spec.squashes", "wavecache.spec.replayed_ops"),
		higher("ratio", "wavecache.stats_digest_match"),
		lower("s", "placement.new_s", "placement.busy_s"),
		lower("count", "placement.assign_calls"),
		lower("count", "noc.messages"),
		lower("ns/op", "noc.send_ns_per_op"),
		lower("ratio", "noc.est_share"),
		lower("count", "mem.accesses"),
		lower("ratio", "mem.l1_miss_ratio"),
		lower("ns/op", "mem.access_ns_per_op"),
		lower("ratio", "mem.est_share"),
		lower("count", "waveorder.memops"),
		lower("ns/op", "waveorder.submit_ns_per_op"),
		lower("ratio", "waveorder.est_share"),
		lower("ns/op", "tagtable.put_get_delete_ns_per_op"),
		lower("s", "ooo.run_s"),
		higher("Minstr/s", "ooo.minstr_per_s"),
		lower("s", "interp.run_s"),
		higher("Minstr/s", "interp.mfired_per_s"),
		lower("ratio", "trace.enabled_overhead_ratio"),
	)
	for _, e := range harness.Experiments {
		add(lower("s", fmt.Sprintf("harness.exp.%s_s", e.ID)))
	}
	add(
		higher("1/s", "harness.cells_per_s"),
		lower("us", "harness.cellcache.get_us", "harness.cellcache.put_us"),
		lower("ms", "serve.req_p50_ms", "serve.req_p99_ms", "serve.cold_p50_ms", "serve.warm_p50_ms", "serve.replay_p50_ms",
			"serve.handler_p50_ms", "serve.transport_p50_ms"),
		lower("us", "serve.encode_us"),
		higher("ratio", "serve.compile_cache_hit_ratio", "serve.cell_cache_hit_ratio"),
		lower("count", "serve.shed", "serve.rate_limited"),
		lower("MB", "proc.alloc_mb"),
		lower("ratio", "proc.gc_cpu_fraction", "proc.host_slowdown"),
		higher("count", "proc.gomaxprocs"),
		lower("ratio", "trace_overhead_ratio"),
	)
	return d
}

// manifest is BENCHMARK.json; `-manifest` prints it from the tables above
// so the file and the program cannot drift (the smoke test compares them).
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func benchManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}
