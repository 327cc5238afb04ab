// Command perfect runs the Perfect Benchmarks® proxy suite on the
// simulated Cedar and prints Tables 3 and 4: execution time, MFLOPS and
// speed improvement for the KAP-compiled and automatable versions (with
// the no-Cedar-sync and no-prefetch ablations), and the hand-optimized
// results.
//
// Usage:
//
//	perfect              # full 13-code suite (several minutes)
//	perfect -codes ARC2D,QCD,SPICE
//	perfect -q           # suppress per-run progress
//	perfect -trace t.json -metrics m.csv   # observability artifacts
//	perfect -jobs 8      # parallel code/variant runs, identical output
//	perfect -faults plan.json   # every machine runs under the fault plan
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"cedar/internal/cliutil"
	"cedar/internal/fleet"
	"cedar/internal/params"
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
	lg := log.New(stderr, "perfect: ", 0)
	fs := flag.NewFlagSet("perfect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		codesFlag = fs.String("codes", "", "comma-separated subset of codes (default: all 13)")
		quiet     = fs.Bool("q", false, "suppress per-run progress lines")
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

	codes := perfect.All()
	if *codesFlag != "" {
		want := map[string]bool{}
		for _, c := range strings.Split(*codesFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(c))] = true
		}
		var sel []perfect.Profile
		for _, p := range codes {
			if want[p.Name] {
				sel = append(sel, p)
			}
		}
		if len(sel) == 0 {
			lg.Printf("no codes match %q", *codesFlag)
			return 2
		}
		codes = sel
	}

	var progress io.Writer = stderr
	if *quiet {
		progress = nil
	}
	suite, err := tables.RunSuite(params.Default(), codes, progress, hub)
	if err != nil {
		lg.Print(err)
		return 1
	}
	fmt.Fprintln(stdout, "Table 3: Cedar execution time, MFLOPS and speed improvement for the Perfect Benchmarks")
	fmt.Fprintln(stdout, tables.BuildTable3(suite).Format())
	fmt.Fprintln(stdout, "Table 4: execution times for manually altered Perfect codes")
	fmt.Fprintln(stdout, tables.FormatTable4(tables.BuildTable4(suite)))
	if hub != nil {
		fmt.Fprintln(stdout, "cycle attribution")
		fmt.Fprint(stdout, scope.FormatAttribution(hub.Attribution()))
	}
	if err := scope.WriteArtifacts(hub, *tracePath, *metrics); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}
