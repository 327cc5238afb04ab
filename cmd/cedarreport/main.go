// Command cedarreport regenerates the paper's complete evaluation —
// every table, figure, microbenchmark and ablation — as one markdown
// report on stdout. It is the one-command version of running cedarsim,
// perfect and judge back to back (expect several minutes at defaults).
//
// Usage:
//
//	cedarreport > report.md
//	cedarreport -n 512 -full           # closer to paper-scale problems
//	cedarreport -codes ARC2D,QCD,SPICE # fast Perfect subset
//	cedarreport -kernels-only
//	cedarreport -trace t.json -metrics m.csv   # observability artifacts
//	cedarreport -jobs 8                # parallel experiment points, identical report
//	cedarreport -faults plan.json      # every machine runs under the fault plan
package main

import (
	"flag"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"cedar/internal/cliutil"
	"cedar/internal/fleet"
	"cedar/internal/perfect"
	"cedar/internal/scope"
	"cedar/internal/tables"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) passed
// in, so tests can drive invalid invocations without forking.
func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "cedarreport: ", 0)
	fs := flag.NewFlagSet("cedarreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 256, "rank-64 update order (paper: 1K)")
		full      = fs.Bool("full", false, "use the paper's largest CG sizes")
		codes     = fs.String("codes", "", "comma-separated Perfect subset (default all 13)")
		kernOnly  = fs.Bool("kernels-only", false, "skip the Perfect suite and methodology")
		quiet     = fs.Bool("q", false, "suppress progress lines")
		tracePath = fs.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
		metrics   = fs.String("metrics", "", "write the metrics snapshot as CSV")
		jobs      = fs.Int("jobs", 0, "parallel experiment jobs (0 = GOMAXPROCS); output is identical at any value")
		faults    = fs.String("faults", "", "JSON fault plan (or \"demo\") injected into every simulated machine")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := cliutil.Setup(fs, cliutil.Flags{Jobs: *jobs, Faults: *faults}); err != nil {
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

	var hub *scope.Hub
	if *tracePath != "" || *metrics != "" {
		hub = scope.NewHub()
		fleet.PublishMetrics(hub)
	}

	cfg := tables.ReportConfig{
		RankN:    *n,
		FullPPT4: *full,
		Progress: stderr,
		// The CLI wants the elapsed-time trailer; library callers get
		// byte-identical reports by leaving Now nil.
		Now: time.Now,
		// A hub adds the cycle-attribution section to the report.
		Scope: hub,
	}
	if *quiet {
		cfg.Progress = nil
	}
	if *kernOnly {
		cfg.SkipPerfect = true
		cfg.SkipMethodology = true
	}
	if *codes != "" {
		want := map[string]bool{}
		for _, c := range strings.Split(*codes, ",") {
			want[strings.ToUpper(strings.TrimSpace(c))] = true
		}
		for _, p := range perfect.All() {
			if want[p.Name] {
				cfg.Codes = append(cfg.Codes, p)
			}
		}
		if len(cfg.Codes) == 0 {
			lg.Printf("no codes match %q", *codes)
			return 2
		}
	}
	if err := tables.WriteReport(stdout, cfg); err != nil {
		lg.Print(err)
		return 1
	}
	if err := scope.WriteArtifacts(hub, *tracePath, *metrics); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}
