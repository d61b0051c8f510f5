// Command bench is the repository's benchmark: five workloads, end-to-end
// and per-layer metrics, and a traced run. See README.md in this directory
// and BENCHMARK.json at the root of the repository.
//
//	bash bench/run.sh --workload sim-kernels --seed 1 --seconds 15 --trace 0
//
// builds it and runs one workload; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Everything else (progress, the per-layer self-time table, golden
// mismatches) goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "sim-kernels":
		return newSimKernels(), nil
	case "sim-memmodes":
		return newSimMemModes(), nil
	case "compile-corpus":
		return &compileWorkload{}, nil
	case "exp-suite":
		return &expWorkload{}, nil
	case "serve-mix":
		return &serveWorkload{}, nil
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runRecord is one line of the -out file: a run's result with what is
// needed to compare it with other runs (cmd/compare reads these).
type runRecord struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Time     string   `json:"time"`
	Host     hostInfo `json:"host"`
	Result   *result  `json:"result"`
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Workers    int    `json:"workers"`
}

func host(workers int) hostInfo {
	h := hostInfo{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Workers: workers}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", runSeconds, "how long to measure: passes start until this much time has gone by")
		traced   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and self times; 0 = end-to-end metrics")
		traceOut = flag.String("trace-out", "", "traced run: write every span to this file as JSON")
		out      = flag.String("out", "", "append this run's record to the file as one JSON line")
		scratch  = flag.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for the run's temporary files")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.StringVar(&updateGoldenDir, "update-golden", "", "write the golden files into this directory instead of comparing")
	flag.Parse()
	if *manifest {
		data, _ := json.MarshalIndent(benchManifest(), "", "  ")
		fmt.Println(string(data))
		return
	}
	if flag.NArg() > 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	sz := defaultSizes(false)
	sz.scratch = *scratch
	rec := runRecord{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced, Host: host(sz.workers)}
	if err := run(&rec, sz, *traceOut, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures the workload rec names, appends rec to the out file if there
// is one, and prints the result as the last line of standard output.
func run(rec *runRecord, sz sizes, traceOut, out string) error {
	if err := os.MkdirAll(sz.scratch, 0o755); err != nil {
		return err
	}
	h := rec.Host
	fmt.Fprintf(os.Stderr, "bench: %s seed %d, %gs, trace %d; %s, GOMAXPROCS %d of %d CPUs (%s), %d worker(s)\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Workers)
	var err error
	rec.Result, err = runWorkload(runConfig{workload: rec.Workload, seed: rec.Seed, seconds: rec.Seconds,
		trace: rec.Trace == 1, traceOut: traceOut, sz: sz, log: os.Stderr})
	if err != nil {
		return err
	}
	rec.Time = time.Now().UTC().Format(time.RFC3339)
	if out != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
