// Command cedarsim regenerates the kernel-level experiments of the paper:
// Table 1 (rank-64 update memory study), Table 2 (global memory latency
// and interarrival), the §3.2 runtime overheads, and the design ablations
// (network type and queue depth, prefetch block size, scaled-up Cedar).
//
// Usage:
//
//	cedarsim -table 1 [-n 512]
//	cedarsim -table 2 [-small]
//	cedarsim -overheads
//	cedarsim -ablation net|pref|sched [-n 256]
//	cedarsim -scaled [-n 256]
//	cedarsim -membw
//	cedarsim -faults plan.json   # degraded-mode table under a fault plan
//	cedarsim -faults demo        # ... under the built-in dead-bank scenario
//	cedarsim -all
//
// Any run accepts -trace FILE (Chrome trace-event JSON for Perfetto or
// chrome://tracing) and -metrics FILE (metrics snapshot CSV); -json embeds
// the per-run metric snapshot next to each result. -jobs N simulates
// independent experiment points in parallel; output is byte-identical at
// any job count. -faults installs a seed-deterministic fault plan for
// every machine the command builds and adds the degraded-mode table.
// -cpuprofile/-memprofile write pprof profiles of the run; -json output
// leads with a self-describing run-metadata header.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cedar/internal/cliutil"
	"cedar/internal/fleet"
	"cedar/internal/scope"
	"cedar/internal/tables"
)

// emit prints either the formatted table or its JSON representation.
// JSON output leads with the run-metadata header (schema, tool, jobs,
// fault plan), making every artifact self-describing; with a hub
// attached it also carries the experiment's slice of the metrics
// registry alongside the result. The header is the only jobs-dependent
// part — byte comparisons across -jobs values look at result+metrics.
func emit(w io.Writer, asJSON bool, hub *scope.Hub, meta cliutil.Meta, prefix string, v interface{}, format func() string) error {
	if !asJSON {
		_, err := fmt.Fprintln(w, format())
		return err
	}
	var out interface{}
	if hub != nil {
		out = struct {
			Header  cliutil.Meta   `json:"header"`
			Result  interface{}    `json:"result"`
			Metrics []scope.Sample `json:"metrics"`
		}{meta, v, hub.SnapshotUnder(prefix)}
	} else {
		out = struct {
			Header cliutil.Meta `json:"header"`
			Result interface{}  `json:"result"`
		}{meta, v}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) passed
// in, so tests can drive invalid invocations without forking.
func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "cedarsim: ", 0)
	fs := flag.NewFlagSet("cedarsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table     = fs.Int("table", 0, "regenerate table 1 or 2")
		n         = fs.Int("n", 256, "matrix order for the rank-64 update (paper: 1K)")
		small     = fs.Bool("small", false, "reduced problem sizes for table 2")
		overheads = fs.Bool("overheads", false, "measure runtime library overheads")
		ablation  = fs.String("ablation", "", "run an ablation: net, pref, or sched")
		scaled    = fs.Bool("scaled", false, "run the scaled-Cedar PPT5 probe")
		membw     = fs.Bool("membw", false, "run the [GJTV91] memory characterization sweep")
		asJSON    = fs.Bool("json", false, "emit results as JSON instead of tables")
		all       = fs.Bool("all", false, "run everything")
		tracePath = fs.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
		metrics   = fs.String("metrics", "", "write the metrics snapshot as CSV")
		jobs      = fs.Int("jobs", 0, "parallel experiment jobs (0 = GOMAXPROCS); output is identical at any value")
		clusters  = fs.Int("clusters", 0, "simulated machine width in clusters (0 = as-built 4; 16/64 = scale-up presets)")
		faults    = fs.String("faults", "", "JSON fault plan (or \"demo\") injected into every simulated machine")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	plan, err := cliutil.Setup(fs, cliutil.Flags{Jobs: *jobs, Clusters: *clusters, Faults: *faults})
	if err != nil {
		lg.Print(err)
		return 2
	}
	prof, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		lg.Print(err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			lg.Print(err)
		}
	}()
	meta := cliutil.NewMeta("cedarsim", plan)

	// The hub exists whenever an artifact or JSON metrics are wanted;
	// otherwise machines are built uninstrumented at zero cost.
	var hub *scope.Hub
	if *tracePath != "" || *metrics != "" || *asJSON {
		hub = scope.NewHub()
		// Surface the shared run cache's counters in -metrics output.
		// (Observed experiments always execute rather than consult the
		// cache, so these stay zero and artifacts stay byte-stable.)
		fleet.PublishMetrics(hub)
	}

	ran := false
	if *all || *overheads {
		ran = true
		ov, err := tables.RunOverheads(hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "overheads", ov, ov.Format); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || *table == 1 {
		ran = true
		t1, err := tables.RunTable1(*n, hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "t1", t1, t1.Format); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || *table == 2 {
		ran = true
		var t2 *tables.Table2Result
		var err error
		if *small {
			t2, err = tables.RunTable2Small(hub)
		} else {
			t2, err = tables.RunTable2(hub)
		}
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "t2", t2, t2.Format); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || *ablation == "net" {
		ran = true
		rows, err := tables.RunNetworkAblation(*n, hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "net", rows, func() string { return tables.FormatNetworkAblation(rows) }); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || *ablation == "sched" {
		ran = true
		rows, err := tables.RunSchedulingAblation(hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "sched", rows, func() string { return tables.FormatScheduling(rows) }); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || *ablation == "pref" {
		ran = true
		rows, err := tables.RunPrefetchBlockAblation(*n, hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "prefblock", rows, func() string { return tables.FormatPrefetchBlock(rows) }); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || *scaled {
		ran = true
		rows, err := tables.RunScaledCedar(*n, hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "scaled", rows, func() string { return tables.FormatScaled(rows) }); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || *membw {
		ran = true
		bw, err := tables.RunMemBW(4096, hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "membw", bw, bw.Format); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if *all || plan != nil {
		ran = true
		rows, err := tables.RunDegraded(*n, plan, hub)
		if err != nil {
			lg.Print(err)
			return 1
		}
		if err := emit(stdout, *asJSON, hub, meta, "degraded", rows, func() string { return tables.FormatDegraded(rows) }); err != nil {
			lg.Print(err)
			return 1
		}
	}
	if !ran {
		fs.Usage()
		return 2
	}
	if hub != nil && !*asJSON {
		fmt.Fprintln(stdout, "cycle attribution")
		fmt.Fprint(stdout, scope.FormatAttribution(hub.Attribution()))
	}
	if err := scope.WriteArtifacts(hub, *tracePath, *metrics); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}
