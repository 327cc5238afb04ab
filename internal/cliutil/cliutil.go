// Package cliutil holds the flag plumbing shared by the commands:
// validation of the -jobs worker count, the -clusters machine width,
// and loading/installing the -faults plan. Keeping it in one place
// means the commands cannot drift apart in how they reject bad
// invocations.
package cliutil

import (
	"flag"
	"fmt"

	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/params"
)

// Flags carries the parsed values of the shared command flags. The zero
// value of every field means "not set, keep the process default".
type Flags struct {
	// Jobs is the fleet worker count (-jobs); 0 means GOMAXPROCS.
	Jobs int
	// Clusters is the simulated machine width (-clusters); 0 keeps the
	// as-built 4-cluster Cedar, 16 and 64 select the scale-up presets.
	Clusters int
	// Faults names a JSON fault plan file, or the literal "demo".
	Faults string
}

// Setup applies the shared flags after fs has been parsed. jobs must be
// positive when the user set it explicitly (the unset default 0 means
// GOMAXPROCS).
// Faults, when non-empty, names a JSON fault plan — or the literal
// "demo" for the built-in dead-bank-plus-network-fault scenario — which
// is validated and installed as the process-wide default so every
// machine the command builds runs under it. The loaded plan (nil when
// Faults is empty) is returned; errors are suitable for printing
// followed by exit 2.
func Setup(fs *flag.FlagSet, f Flags) (*fault.Plan, error) {
	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	if explicit["jobs"] && f.Jobs <= 0 {
		return nil, fmt.Errorf("-jobs must be at least 1, got %d", f.Jobs)
	}
	fleet.SetJobs(f.Jobs)
	if err := params.SetDefaultClusters(f.Clusters); err != nil {
		return nil, fmt.Errorf("-clusters %d: %w", f.Clusters, err)
	}

	var plan *fault.Plan
	if f.Faults != "" {
		if f.Faults == "demo" {
			plan = fault.DemoPlan()
		} else {
			var err error
			if plan, err = fault.Load(f.Faults); err != nil {
				return nil, err
			}
		}
	}
	// Install unconditionally: a command invoked without -faults must
	// clear any plan a previous test or library caller left behind.
	fault.SetDefault(plan)
	return plan, nil
}
