// speedup runs one benchmark kernel head-to-head — WaveCache versus the
// out-of-order superscalar — across the three memory-ordering strategies,
// reproducing the paper's central claim in miniature: wave-ordered memory
// recovers almost all of an oracle memory's performance, while the
// dependence-token serialization a dataflow machine would otherwise need
// collapses, and the gap to the superscalar tracks how much memory
// parallelism the kernel exposes.
package main

import (
	"fmt"
	"log"

	"wavescalar"
	"wavescalar/internal/workloads"
)

func main() {
	w := workloads.ByName("equake")
	fmt.Printf("benchmark: %s (mirrors %s)\n%s\n\n", w.Name, w.Mirrors, w.Description)

	prog, err := wavescalar.Compile(w.Src, wavescalar.DefaultCompileConfig())
	if err != nil {
		log.Fatal(err)
	}

	base, err := prog.SimulateBaseline()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("superscalar baseline: %d cycles (IPC %.2f)\n\n", base.Cycles, base.IPC)

	fmt.Printf("%-14s %10s %8s %18s\n", "memory mode", "cycles", "IPC", "vs. superscalar")
	var ordered int64
	for _, mode := range []string{"serialized", "wave-ordered", "ideal"} {
		res, err := prog.Simulate(wavescalar.SimConfig{MemoryMode: mode})
		if err != nil {
			log.Fatal(err)
		}
		if res.Value != base.Value {
			log.Fatalf("engines disagree: %d vs %d", res.Value, base.Value)
		}
		if mode == "wave-ordered" {
			ordered = res.Cycles
		}
		fmt.Printf("%-14s %10d %8.2f %17.2fx\n", mode, res.Cycles, res.IPC,
			float64(base.Cycles)/float64(res.Cycles))
	}
	fmt.Println()
	fmt.Printf("wave-ordered memory is the paper's contribution: it gives the\n")
	fmt.Printf("dataflow machine C-compatible memory semantics at %d cycles here,\n", ordered)
	fmt.Printf("close to the oracle and far from the serialized strawman.\n")
}
