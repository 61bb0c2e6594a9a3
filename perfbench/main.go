// Command perfbench is the wall-clock benchmark of the vmsh simulator.
//
// It drives one closed-loop workload (storm, blkio or checkpoint; see
// README.md) through the public vmsh facade for a fixed number of
// host seconds, checks every operation's output, and prints as its
// last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time,
// measured with tracing off). With -trace 1 they are the per-layer
// ones: spans around every call into a layer, exact per-op counts and
// CPU-profile self-time shares; spans and the profile are written
// under -out. The line before the result carries the run's metadata
// (seed, GOMAXPROCS, CPU, Go version, source digest).
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload blkio --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// later claims must also hold on it.
const heldOutSeed = 7

func main() {
	workload := flag.String("workload", "", "storm, blkio or checkpoint")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench-work", "scratch directory for recordings and snapshots")
	out := flag.String("out", ".bench_build/perfbench-trace", "directory for spans and CPU profiles of traced runs")
	src := flag.String("src", ".", "source tree the binary was built from (for the source digest)")
	recordDigests := flag.Bool("record-storm-digests", false, "print digests.go for the storm round configurations and exit")
	flag.Parse()

	if *recordDigests {
		if err := writeStormDigests(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want storm, blkio or checkpoint)\n", *workload)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := benchmark(w, *workload, cfg, *work, *out, *src); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

// benchmark runs one workload and prints the metadata line and the
// result line; it prints nothing on error.
func benchmark(w workload, name string, cfg runConfig, work, out, src string) error {
	cfg.dir = filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	meta := newMeta(name, cfg.seed, src)
	res, err := run(w, cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := res.writeTrace(out, name, cfg.seed); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	head, err := json.Marshal(map[string]any{"meta": meta, "setup_s": res.setupS})
	if err != nil {
		return err
	}
	last, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	fmt.Println(string(head))
	fmt.Println(string(last))
	return nil
}

// meta identifies what was measured and where.
type meta struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	HeldOutSeed  int64  `json:"held_out_seed"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Time         string `json:"time"`
}

func newMeta(workload string, seed int64, src string) meta {
	return meta{
		Workload:     workload,
		Seed:         seed,
		HeldOutSeed:  heldOutSeed,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest(src),
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
}
