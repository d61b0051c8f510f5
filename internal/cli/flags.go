package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"wavescalar/internal/harness"
)

// The flags more than one command exposes are defined here once — name,
// default and help text — and each command registers the ones it has before
// flag.Parse. Defaults come from the harness, the one home of them.

// CompileFlags registers -unroll and -O.
func CompileFlags() (unroll, optLevel *int) {
	def := harness.DefaultCompileOptions()
	return flag.Int("unroll", def.Unroll, "loop unrolling factor (1 disables)"),
		flag.Int("O", def.OptLevel, "optimization level: 0 = base passes only, 1 = compiler memory tier (store forwarding, scalar replacement, dead stores)")
}

// MachineFlags registers -grid and -mem; their values go through
// wavecache.ParseGrid and wavecache.ParseMemoryMode.
func MachineFlags() (grid, mem *string) {
	def := harness.DefaultMachineOptions()
	return flag.String("grid", fmt.Sprintf("%dx%d", def.GridW, def.GridH), "cluster grid, WxH"),
		flag.String("mem", "", "memory ordering: wave-ordered (default), serialized, ideal, spec")
}

// ProfileFlags registers -cpuprofile and -memprofile. The returned start, to
// call after flag.Parse, begins CPU profiling and hands back stop, which
// ends it and snapshots the allocation profile; stop is idempotent, so a
// command both defers it and passes it to Fatal.
func ProfileFlags() (start func() (stop func(), err error)) {
	cpu := flag.String("cpuprofile", "", "write a CPU profile (go tool pprof format) to this file")
	heap := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	return func() (func(), error) { return startProfiles(*cpu, *heap) }
}

func startProfiles(cpu, heap string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if heap != "" {
			f, err := os.Create(heap)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		}
	}, nil
}
