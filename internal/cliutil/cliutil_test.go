package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/params"
)

// newFS builds the flag set every command declares, pre-parsed with args.
func newFS(t *testing.T, args ...string) (*flag.FlagSet, *int, *string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	jobs := fs.Int("jobs", 0, "")
	faults := fs.String("faults", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return fs, jobs, faults
}

func reset(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		fault.SetDefault(nil)
		fleet.SetJobs(0)
		if err := params.SetDefaultClusters(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSetupJobsValidation(t *testing.T) {
	reset(t)
	for _, args := range [][]string{
		{"-jobs", "0"},
		{"-jobs=-4"},
	} {
		fs, jobs, faults := newFS(t, args...)
		if _, err := Setup(fs, Flags{Jobs: *jobs, Faults: *faults}); err == nil {
			t.Errorf("Setup(%v): want error for non-positive explicit -jobs", args)
		} else if !strings.Contains(err.Error(), "-jobs") {
			t.Errorf("Setup(%v): error %q does not name the flag", args, err)
		}
	}

	// Unset -jobs keeps the GOMAXPROCS default without complaint.
	fs, jobs, faults := newFS(t)
	if _, err := Setup(fs, Flags{Jobs: *jobs, Faults: *faults}); err != nil {
		t.Fatalf("Setup with defaults: %v", err)
	}

	fs, jobs, faults = newFS(t, "-jobs", "3")
	if _, err := Setup(fs, Flags{Jobs: *jobs, Faults: *faults}); err != nil {
		t.Fatalf("Setup(-jobs 3): %v", err)
	}
	if got := fleet.Jobs(); got != 3 {
		t.Fatalf("fleet.Jobs() = %d, want 3", got)
	}
}

func TestSetupFaultPlans(t *testing.T) {
	reset(t)

	fs, jobs, faults := newFS(t, "-faults", "demo")
	plan, err := Setup(fs, Flags{Jobs: *jobs, Faults: *faults})
	if err != nil {
		t.Fatalf("Setup(-faults demo): %v", err)
	}
	if plan == nil || len(plan.Faults) == 0 {
		t.Fatal("demo plan is empty")
	}
	if fault.Default() != plan {
		t.Fatal("demo plan was not installed as the default")
	}

	good := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(good, []byte(`{"seed": 7, "faults": [{"kind": "bank-dead", "module": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, jobs, faults = newFS(t, "-faults", good)
	plan, err = Setup(fs, Flags{Jobs: *jobs, Faults: *faults})
	if err != nil {
		t.Fatalf("Setup(-faults %s): %v", good, err)
	}
	if plan.Seed != 7 || len(plan.Faults) != 1 || plan.Faults[0].Kind != fault.BankDead {
		t.Fatalf("loaded plan = %+v", plan)
	}

	// No -faults clears a previously installed plan.
	fs, jobs, faults = newFS(t)
	if _, err := Setup(fs, Flags{Jobs: *jobs, Faults: *faults}); err != nil {
		t.Fatal(err)
	}
	if fault.Default() != nil {
		t.Fatal("Setup without -faults left a stale default plan")
	}
}

func TestSetupFaultErrors(t *testing.T) {
	reset(t)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"seed": 1, "faults": [{"kind": "bank-dead", "module": -1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		filepath.Join(t.TempDir(), "missing.json"),
		bad,
	} {
		fs, jobs, faults := newFS(t, "-faults", path)
		if _, err := Setup(fs, Flags{Jobs: *jobs, Faults: *faults}); err == nil {
			t.Errorf("Setup(-faults %s): want error", path)
		}
	}
}

func TestSetupClusters(t *testing.T) {
	reset(t)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	clusters := fs.Int("clusters", 0, "")
	if err := fs.Parse([]string{"-clusters", "16"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Setup(fs, Flags{Clusters: *clusters}); err != nil {
		t.Fatal(err)
	}
	if got := params.Default().Clusters; got != 16 {
		t.Errorf("Default().Clusters = %d, want 16", got)
	}

	// An invalid width is rejected by params validation.
	if _, err := Setup(flag.NewFlagSet("t", flag.ContinueOnError), Flags{Clusters: -2}); err == nil {
		t.Error("Setup(-clusters -2): want error")
	}
}

func TestNewMetaHostFields(t *testing.T) {
	reset(t)
	m := NewMeta("test", nil)
	if m.GoMaxProcs < 1 || m.NumCPU < 1 {
		t.Errorf("host fields unset: %+v", m)
	}
	if m.Schema != MetaSchema {
		t.Errorf("Schema = %d, want %d", m.Schema, MetaSchema)
	}
}
