// Command wavesim runs a wsl program on the cycle-level WaveCache simulator
// and optionally on the out-of-order superscalar baseline for comparison.
//
// Usage:
//
//	wavesim [-grid WxH] [-placement POLICY]
//	        [-mem wave-ordered|serialized|ideal|spec] [-density N] [-queue N]
//	        [-faults defect=0.05,drop=0.01] [-fault-seed 1] [-max-cycles N]
//	        [-trace events.jsonl] [-trace-chrome trace.json] [-metrics]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//	        [-baseline] file.wsl
//
// -trace writes the structured event stream as JSONL (one event per line);
// -trace-chrome writes the same run in Chrome trace_event format — open it
// at chrome://tracing or https://ui.perfetto.dev. -metrics prints the
// per-run trace metrics summary table. All three are deterministic for a
// fixed program, configuration, and fault seed, and none of them perturbs
// the simulated timing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/harness"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavecache"
)

func main() {
	def := harness.DefaultMachineOptions()
	grid, memFlag := cli.MachineFlags()
	pol := flag.String("placement", def.Policy,
		"placement policy: "+strings.Join(wavescalar.PlacementPolicies(), ", "))
	density := flag.Int("density", def.Density, "instruction homes packed per PE")
	queue := flag.Int("queue", def.InputQueue, "PE matching-table capacity")
	unroll, optLevel := cli.CompileFlags()
	baseline := flag.Bool("baseline", false, "also run the superscalar baseline and report speedup")
	faults := flag.String("faults", "",
		"fault injection spec: defect=R,drop=R,delay=R,memloss=R,kill=PE@CYCLE,retries=N,timeout=C,delaycycles=C")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for deterministic fault injection")
	maxCycles := flag.Int64("max-cycles", 0,
		"watchdog bound on simulated cycles; exceeding it aborts with a diagnostic dump (0 = unbounded)")
	tracePath := flag.String("trace", "", "write the structured event stream to this file as JSONL")
	chromePath := flag.String("trace-chrome", "", "write a Chrome trace_event file (open at chrome://tracing)")
	metrics := flag.Bool("metrics", false, "print the per-run trace metrics summary table")
	sample := flag.Int64("trace-sample", 0, "trace counter sampling interval in cycles (0 = default)")
	profiles := cli.ProfileFlags()
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wavesim [flags] file.wsl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	stop, err := profiles()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()
	w, h, err := wavecache.ParseGrid(*grid)
	if err != nil {
		fatal(fmt.Errorf("-grid: %v", err))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := wavescalar.Compile(string(src), wavescalar.CompileConfig{Unroll: *unroll, OptLevel: *optLevel})
	if err != nil {
		fatal(err)
	}
	var tr *trace.Tracer
	if *tracePath != "" || *chromePath != "" || *metrics {
		tr = trace.New(trace.Config{
			Events:         *tracePath != "" || *chromePath != "",
			SampleInterval: *sample,
		})
	}
	res, err := prog.Simulate(wavescalar.SimConfig{
		GridW: w, GridH: h,
		Placement:  *pol,
		Density:    *density,
		InputQueue: *queue,
		MemoryMode: *memFlag,
		MaxCycles:  *maxCycles,
		Faults:     *faults,
		FaultSeed:  *faultSeed,
		Tracer:     tr,
	})
	if err != nil {
		fatal(err)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, tr.WriteJSONL); err != nil {
			fatal(err)
		}
	}
	if *chromePath != "" {
		if err := writeTrace(*chromePath, tr.WriteChromeTrace); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("result:             %d\n", res.Value)
	fmt.Printf("cycles:             %d\n", res.Cycles)
	fmt.Printf("fired instructions: %d (IPC %.3f)\n", res.Fired, res.IPC)
	fmt.Printf("operand tokens:     %d\n", res.Tokens)
	fmt.Printf("PEs used:           %d\n", res.PEsUsed)
	fmt.Printf("instruction swaps:  %d\n", res.Swaps)
	fmt.Printf("queue spills:       %d\n", res.Overflows)
	fmt.Printf("memory operations:  %d (L1 miss rate %.4f, coherence moves %d)\n",
		res.MemoryOps, res.L1MissRate, res.CoherenceMoves)
	fmt.Printf("network messages:   %d\n", res.NetworkMessages)
	if *faults != "" {
		fmt.Printf("fault injection:    %d defective PEs, %d mid-run kills (%d instructions migrated)\n",
			res.DefectivePEs, res.PEKills, res.MigratedInstrs)
		fmt.Printf("fault recovery:     %d drops, %d retransmits, %d delayed, %d cycles in ack timeouts\n",
			res.MessageDrops, res.MessageRetries, res.DelayedMessages, res.RetryWaitCycles)
	}
	if *metrics {
		fmt.Println()
		fmt.Println(tr.Metrics().Summary("WaveCache trace metrics").Render())
	}

	if *baseline {
		base, err := prog.SimulateBaseline()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nbaseline superscalar: %d cycles (IPC %.3f, %d instructions, %.2f%% mispredicts)\n",
			base.Cycles, base.IPC, base.Instrs, 100*float64(base.Mispredicts)/float64(max(base.Branches, 1)))
		fmt.Printf("WaveCache speedup over baseline: %.2fx\n", float64(base.Cycles)/float64(res.Cycles))
	}
}

// writeTrace creates path and streams one of the tracer's export formats
// into it, reporting close errors (a full disk truncates JSON silently
// otherwise).
func writeTrace(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stopProfiles flushes any active profiles; fatal calls it so -cpuprofile
// output survives error exits (os.Exit skips defers).
var stopProfiles func()

// fatal reports err and exits: 3 with a structured diagnostic when the
// simulation aborted on a FaultError (watchdog, deadlock, unrecoverable
// fault), 1 otherwise — so drivers can tell "the run faulted" from "the
// invocation was wrong" without parsing stderr.
func fatal(err error) { cli.Fatal("wavesim", err, stopProfiles) }
