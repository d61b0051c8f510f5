// Quickstart: compile a small wsl program to a WaveScalar dataflow binary,
// run it on the ideal dataflow machine, the cycle-level WaveCache, and the
// superscalar baseline, and print what happened.
package main

import (
	"fmt"
	"log"

	"wavescalar"
)

const src = `
// dot product with a strided twist: enough memory traffic and control to
// exercise waves, steers, and wave-ordered memory.
global x[64];
global y[64];

func main() {
	for var i = 0; i < 64; i = i + 1 {
		x[i] = i + 1;
		y[i] = 64 - i;
	}
	var dot = 0;
	for var i = 0; i < 64; i = i + 1 {
		dot = dot + x[i] * y[(i * 3) % 64];
	}
	return dot;
}
`

func main() {
	prog, err := wavescalar.Compile(src, wavescalar.DefaultCompileConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled to %d static dataflow instructions\n\n", prog.StaticInstructions())

	ideal, err := prog.Interpret()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ideal dataflow machine (unbounded PEs):")
	fmt.Printf("  result=%d  fired=%d  tokens=%d  peak parallelism=%d\n\n",
		ideal.Value, ideal.Fired, ideal.Tokens, ideal.MaxParallelism)

	sim, err := prog.Simulate(wavescalar.DefaultSimConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("WaveCache (4x4 clusters, published parameters):")
	fmt.Printf("  result=%d  cycles=%d  IPC=%.2f  PEs used=%d  L1 miss rate=%.4f\n\n",
		sim.Value, sim.Cycles, sim.IPC, sim.PEsUsed, sim.L1MissRate)

	base, err := prog.SimulateBaseline()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("out-of-order superscalar baseline (8-wide, 256-entry window):")
	fmt.Printf("  result=%d  cycles=%d  IPC=%.2f\n\n", base.Value, base.Cycles, base.IPC)

	if ideal.Value != sim.Value || sim.Value != base.Value {
		log.Fatal("engines disagree!")
	}
	fmt.Printf("all three engines agree on the result (%d)\n", sim.Value)
}
