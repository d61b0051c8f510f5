// Command waverun executes a wsl program (or a .wsa assembly file) on the
// reference tagged-token dataflow interpreter — the ideal WaveScalar
// machine — and prints the result and execution statistics.
//
// Usage:
//
//	waverun [-asm] [-unroll N] file.wsl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wavescalar"
	"wavescalar/internal/cli"
)

func main() {
	isAsm := flag.Bool("asm", false, "input is WaveScalar assembly, not wsl source")
	unroll, optLevel := cli.CompileFlags() // for wsl input
	maxCycles := flag.Int64("max-cycles", 0,
		"abort after this many interpreter steps with a diagnostic dump (0 = default budget)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: waverun [flags] file.wsl|file.wsa\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	var prog *wavescalar.Program
	if *isAsm || strings.HasSuffix(flag.Arg(0), ".wsa") {
		prog, err = wavescalar.ParseAssembly(string(data))
	} else {
		prog, err = wavescalar.Compile(string(data), wavescalar.CompileConfig{Unroll: *unroll, OptLevel: *optLevel})
	}
	if err != nil {
		fatal(err)
	}

	res, err := prog.InterpretWithFuel(*maxCycles)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result: %d\n", res.Value)
	fmt.Printf("fired instructions:  %d\n", res.Fired)
	fmt.Printf("operand tokens:      %d\n", res.Tokens)
	fmt.Printf("steers:              %d\n", res.Steers)
	fmt.Printf("wave advances:       %d\n", res.WaveAdvances)
	fmt.Printf("memory operations:   %d\n", res.MemoryOps)
	fmt.Printf("peak in-flight tokens (exposed parallelism): %d\n", res.MaxParallelism)
}

// fatal reports err and exits: 3 with a structured diagnostic when a
// simulation aborted on a FaultError, 1 otherwise.
func fatal(err error) { cli.Fatal("waverun", err) }
