// Command perfbench is the repository's end-to-end benchmark. Each
// measured sample is one whole clustering through p3cmr.Run on the
// in-process backend with mr.Config{Parallelism: nproc}, done by a fresh
// child process that reads the generated input file, builds the engine and
// clusters, so that set-up, CPU time and peak memory are those of one
// clustering. Samples run one at a time (a closed loop with one client).
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this program):
//
//	perfbench --workload mvb-200k --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced clusterings.
// With --trace 1 it reports the per-layer metrics of one traced clustering,
// the layer probes, one clustering at Parallelism 1 and untraced
// clusterings as the base of the tracing overhead. Every clustering of one
// invocation must give the same output digest; a mismatch or an error
// counts as failed. The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name")
		seed         = flag.Int64("seed", 1, "generator seed of the workload's input")
		seconds      = flag.Float64("seconds", 30, "measuring time")
		trace        = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
		list         = flag.Bool("list", false, "print the workloads and metrics and exit")
		child        = flag.Bool("child", false, "internal: perform one clustering and print its report")
		dataPath     = flag.String("data", "", "internal: input file of a child")
		truthPath    = flag.String("truth", "", "internal: ground-truth file of a child")
		parallelism  = flag.Int("parallelism", 0, "internal: engine parallelism of a child")
		traced       = flag.Bool("traced", false, "internal: trace the child's clustering and run the layer probes")
	)
	flag.Parse()
	if *list {
		printList()
		return
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *child {
		rep := runChild(childArgs{workload: w, dataPath: *dataPath, truthPath: *truthPath, parallelism: *parallelism, traced: *traced})
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	out, err := bench(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out.print(os.Stdout)
}

func printList() {
	fmt.Println("workloads (input: dataset.Generate with Seed = --seed, 5 clusters, 10% noise, overlap):")
	for _, w := range workloads {
		fmt.Printf("  %-11s %-10s %d x %d  %s\n", w.name, w.algo, w.n, w.dim, w.why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-28s %-9s %-6s bound %.2f\n", m.name, m.unit, m.better, m.bound)
	}
	fmt.Println("per-layer metrics (--trace 1): name, unit, end-to-end metric it should move, on which workload (control)")
	for _, m := range perLayer {
		fmt.Printf("  %-28s %-9s %-9s %s\n", m.name, m.unit, m.moves, m.on)
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
