// Command repro regenerates every table and figure from the paper's
// evaluation section. Experiments execute concurrently on a worker pool
// (and fan their own independent simulations out further); the report is
// assembled in experiment order, so its bytes are identical for a fixed
// seed regardless of worker count. With no flags it runs the full suite
// and prints each result in the paper's format; -run selects a subset;
// -json emits the machine-readable encoding instead of text tables.
//
// With -campaign it becomes a sweep client instead: the spec file (a
// JobSpec template plus axes) is POSTed to a running simd, progress is
// reported until the grid completes, and the server's comparison table
// across two axes (or, with -json, its NDJSON cell results) is printed
// as served.
//
//	repro                  # everything
//	repro -run table2,figure3
//	repro -list            # show available experiments
//	repro -seed 7 -workers 4 -o report.txt
//	repro -run table2 -json -o report.json
//	repro -campaign sweep.json -addr localhost:8080 -rows params.seed -cols options.scheduler -metric write_mbps
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"ossd/internal/core"
	"ossd/internal/experiments"
	"ossd/internal/fault"
	"ossd/internal/runner"
	"ossd/internal/simsvc"
)

func main() {
	var (
		runList   = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		seed      = flag.Int64("seed", 1, "random seed for workloads")
		workers   = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		outPath   = flag.String("o", "", "write the report to this file (default stdout)")
		asJSON    = flag.Bool("json", false, "emit machine-readable JSON results instead of text tables")
		faultPath = flag.String("fault", "", "apply a fault plan (JSON file) to every device the experiments build")

		campaignSpec = flag.String("campaign", "", "drive a remote sweep: path to a campaign spec file (template + axes)")
		addr         = flag.String("addr", "localhost:8080", "simd address for -campaign")
		rows         = flag.String("rows", "", "table rows axis for -campaign (default: first axis)")
		cols         = flag.String("cols", "", "table cols axis for -campaign (default: second axis)")
		metric       = flag.String("metric", "", "table metric for -campaign, a dotted result path (default: write_mbps)")
	)
	flag.Parse()

	// Experiments build their devices internally, so a fault plan travels
	// as the process default, picked up by every device built without an
	// explicit plan.
	if *faultPath != "" {
		plan, err := loadFault(*faultPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		core.SetDefaultFault(plan)
	}

	cat := experiments.Catalog()
	if *list {
		for _, e := range cat {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	if *campaignSpec != "" {
		failed, err := runCampaign(out, campaignFlags{
			specPath: *campaignSpec,
			addr:     *addr,
			rows:     *rows,
			cols:     *cols,
			metric:   *metric,
			asJSON:   *asJSON,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	all := *runList == "all"
	for _, id := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(id)] = true
	}

	if !all {
		for id := range want {
			if id == "" {
				continue
			}
			if _, ok := experiments.CatalogEntryByID(id); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
		}
	}

	var selected []experiments.CatalogEntry
	for _, e := range cat {
		if all || want[e.ID] {
			selected = append(selected, e)
		}
	}

	// Split the worker budget across the two fan-out levels so peak
	// concurrency stays bounded by the budget: up to `outer` experiments
	// run at once, each fanning its own specs across `inner` workers.
	// One experiment selected -> all workers go to its specs; many
	// selected -> experiments parallelize and their insides serialize.
	budget := *workers
	if budget <= 0 {
		budget = runner.DefaultWorkers()
	}
	outer := budget
	if outer > len(selected) {
		outer = len(selected)
	}
	if outer < 1 {
		outer = 1
	}
	inner := budget / outer
	if inner < 1 {
		inner = 1
	}
	var mu sync.Mutex
	specs := make([]runner.Spec[experiments.Result], len(selected))
	for i, e := range selected {
		specs[i] = runner.Spec[experiments.Result]{
			Name: e.ID,
			Seed: *seed,
			Run:  func() (experiments.Result, error) { return e.Run(*seed, inner) },
		}
	}
	outcomes := runner.RunAll(specs, runner.Options{
		Workers: outer,
		OnStart: func(name string) {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "running %s ...\n", name)
			mu.Unlock()
		},
	})

	// Timing goes to stderr only: the report must be byte-identical for a
	// fixed seed regardless of worker count or machine speed. Failures get
	// their own stderr line so they are visible even when the report goes
	// to a file (-o); the report body marks them too, and the process
	// exits non-zero below.
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%-10s FAILED after %.1fs: %v\n", o.Name, o.Elapsed.Seconds(), o.Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "%-10s finished in %.1fs\n", o.Name, o.Elapsed.Seconds())
	}

	var failed bool
	if *asJSON {
		var err error
		failed, err = writeJSON(out, *seed, selected, outcomes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		failed = writeText(out, *seed, selected, outcomes)
	}
	if failed {
		os.Exit(1)
	}
}

// loadFault reads a -fault plan. A power-loss point is refused rather
// than silently dropped: it truncates a workload at an op count, and
// experiments drive their workloads to completion.
func loadFault(path string) (*fault.Plan, error) {
	plan, err := fault.Load(path)
	if err != nil {
		return nil, err
	}
	if plan.PowerLossPoint() != nil {
		return nil, fmt.Errorf("repro: %s has a power_loss point, but experiments cannot truncate their workloads; run the plan as a simd job or with ssdsim -fault", path)
	}
	return plan, nil
}

// writeText renders the report in the paper's text format. It reports
// whether any experiment failed. The byte-identity golden test compares
// this writer's output with testdata/report-seed{1,7}.txt, so the bytes
// for a fixed seed are a compatibility surface: change them
// deliberately, regenerating the goldens.
func writeText(out io.Writer, seed int64, selected []experiments.CatalogEntry, outcomes []runner.Outcome[experiments.Result]) bool {
	failed := false
	fmt.Fprintf(out, "Block Management in Solid-State Devices — reproduction report\n")
	fmt.Fprintf(out, "seed=%d\n\n", seed)
	for i, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(out, "== %s FAILED: %v\n\n", o.Name, o.Err)
			failed = true
			continue
		}
		fmt.Fprintf(out, "== %s (%s)\n%s\n", o.Name, selected[i].Description, o.Value.String())
	}
	return failed
}

// writeJSON renders the machine-readable report (simsvc's encoding).
func writeJSON(out io.Writer, seed int64, selected []experiments.CatalogEntry, outcomes []runner.Outcome[experiments.Result]) (failed bool, err error) {
	results := make([]simsvc.ExperimentResult, len(outcomes))
	for i, o := range outcomes {
		results[i] = simsvc.ExperimentResult{
			Name:        selected[i].ID,
			Description: selected[i].Description,
			Seed:        seed,
		}
		if o.Err != nil {
			results[i].Error = o.Err.Error()
			failed = true
			continue
		}
		results[i].Report = o.Value.String()
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return failed, enc.Encode(results)
}
