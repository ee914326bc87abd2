// Command ccbench runs the paper-reproduction experiments (T1–T4 theorems,
// F1–F5 figures, E1–E7 measurements) and prints their tables. Each
// experiment runs once at a fixed scale and fails if its self-check does;
// throughput and latency numbers come from bench/, not from here. The
// engine's state==replay, schedule-CSR and recovered==replay checks are
// tests in internal/sim and internal/storage, through internal/check.
//
// Usage:
//
//	ccbench                 # run everything
//	ccbench -exp E1,E4      # run selected experiments
//	ccbench -list           # list experiment ids
//
// Profiling and allocation measurement (the perf workflow behind the
// zero-allocation hot path, DESIGN.md "Memory discipline"):
//
//	ccbench -exp E4 -cpuprofile cpu.pprof   # CPU profile of the cell
//	ccbench -exp E4 -memprofile mem.pprof   # heap profile at exit
//	ccbench -exp E4,E7 -allocstats          # per-experiment allocator pressure
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"optcc/internal/experiments"
	"optcc/internal/report"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		listFlag  = flag.Bool("list", false, "list experiment ids and exit")
		cpuFlag   = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memFlag   = flag.String("memprofile", "", "write a heap profile to this file after the experiments finish")
		allocFlag = flag.Bool("allocstats", false, "report per-experiment allocator pressure (heap objects and MB allocated) after the tables")
	)
	flag.Parse()
	var ids []string
	for _, e := range experiments.Registry {
		ids = append(ids, e.ID)
	}
	if *listFlag {
		fmt.Println(strings.Join(ids, " "))
		return
	}
	// Resolve -exp before the CPU profile starts, so a bad id exits without
	// leaving an empty profile behind.
	var selected []experiments.Experiment
	if *expFlag == "all" || *expFlag == "" {
		selected = experiments.Registry
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(experiments.Registry, func(e experiments.Experiment) bool { return e.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q (known: %s)\n", id, strings.Join(ids, " "))
				os.Exit(2)
			}
			selected = append(selected, experiments.Registry[i])
		}
	}
	// stopCPU flushes and closes the CPU profile; it must also run on the
	// error exits below (os.Exit skips defers), or the profile of a failed
	// run — the one most worth inspecting — would be truncated.
	stopCPU := func() {}
	if *cpuFlag != "" {
		f, err := os.Create(*cpuFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		stopped := false
		stopCPU = func() {
			if !stopped {
				stopped = true
				pprof.StopCPUProfile()
				f.Close()
			}
		}
		defer stopCPU()
	}
	// -allocstats meters each experiment with report.AllocMeter; the table
	// goes to stderr so stdout holds only the experiments' own tables.
	var allocTable *report.Table
	if *allocFlag {
		allocTable = report.NewTable("allocator pressure (process-wide runtime/metrics deltas)",
			"experiment", "allocs", "alloc-MB")
	}
	for _, e := range selected {
		var am report.AllocMeter
		if *allocFlag {
			am.Start()
		}
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %s failed: %v\n", e.ID, err)
			stopCPU()
			os.Exit(1)
		}
		if *allocFlag {
			allocs, bytes, _ := am.Delta()
			allocTable.AddRow(e.ID, allocs, float64(bytes)/(1<<20))
		}
		fmt.Println(res.String())
	}
	if *allocFlag {
		fmt.Fprintln(os.Stderr, allocTable.String())
	}
	if *memFlag != "" {
		// A GC first, so the heap profile shows live retention rather than
		// garbage awaiting collection.
		runtime.GC()
		f, err := os.Create(*memFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -memprofile: %v\n", err)
			stopCPU()
			os.Exit(2)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -memprofile: %v\n", err)
			stopCPU()
			os.Exit(2)
		}
		f.Close()
	}
}
