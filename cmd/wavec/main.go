// Command wavec compiles wsl source files to WaveScalar dataflow assembly.
//
// Usage:
//
//	wavec [-unroll N] [-O level] [-select] [-dot FUNC] [-stats] file.wsl
//
// The assembly (or, with -dot, the named function's GraphViz graph) is
// written to standard output; -stats prints a summary (instruction count,
// memory chains, the memory tier's counters) to standard error.
package main

import (
	"flag"
	"fmt"
	"os"

	"wavescalar"
	"wavescalar/internal/cli"
)

func main() {
	unroll, optLevel := cli.CompileFlags()
	useSelect := flag.Bool("select", false, "lower small diamonds to φ SELECT instead of steers")
	showStats := flag.Bool("stats", false, "print compilation statistics to stderr")
	dotFunc := flag.String("dot", "", "emit a GraphViz graph of the named function ('main' for the entry) instead of assembly")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wavec [flags] file.wsl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cfg := wavescalar.CompileConfig{Unroll: *unroll, UseSelect: *useSelect, OptLevel: *optLevel}
	prog, err := wavescalar.Compile(string(src), cfg)
	if err != nil {
		fatal(err)
	}
	if *dotFunc != "" {
		dot, err := prog.ExportDot(*dotFunc)
		if err != nil {
			fatal(err)
		}
		fmt.Print(dot)
	} else {
		fmt.Print(prog.Disassemble())
	}
	if *showStats {
		fmt.Fprintf(os.Stderr, "static dataflow instructions: %d\n", prog.StaticInstructions())
		chains := prog.ChainStats()
		fmt.Fprintf(os.Stderr, "memory chain slots: %d (loads %d, stores %d, mem-nops %d, calls %d, ends %d)\n",
			chains.Slots, chains.Loads, chains.Stores, chains.Nops, chains.Calls, chains.Ends)
		fmt.Fprintf(os.Stderr, "memory chains: %d (avg length %.1f, max %d)\n",
			chains.Chains, chains.AvgChain(), chains.MaxChain)
		if st, on := prog.OptStats(); on {
			fmt.Fprintf(os.Stderr, "memory tier: %d stores forwarded, %d loads reused, %d loads promoted, %d dead stores\n",
				st.StoresForwarded, st.LoadsReused, st.LoadsPromoted, st.DeadStores)
			fmt.Fprintf(os.Stderr, "memory tier: mem ops %d -> %d, instrs %d -> %d\n",
				st.MemBefore, st.MemAfter, st.InstrsBefore, st.InstrsAfter)
			// Chain-length before/after: recompile without the tier for the
			// baseline chains (cheap for a single program).
			base := cfg
			base.OptLevel = 0
			if unopt, err := wavescalar.Compile(string(src), base); err == nil {
				b := unopt.ChainStats()
				fmt.Fprintf(os.Stderr, "memory tier: chain slots %d -> %d, mem-nops %d -> %d, max chain %d -> %d\n",
					b.Slots, chains.Slots, b.Nops, chains.Nops, b.MaxChain, chains.MaxChain)
			}
		}
	}
}

func fatal(err error) { cli.Fatal("wavec", err) }
