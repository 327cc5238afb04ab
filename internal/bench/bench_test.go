package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/fault"
)

// mini returns a small campaign for runner tests: one machine, two
// workloads (one duplicated semantically under another name, to exercise
// cache dedup), healthy and demo fault plans.
func mini() *Campaign {
	return &Campaign{
		Area:     "mini",
		Machines: []MachineSpec{{Name: "cedar"}},
		Workloads: []WorkloadSpec{
			{Name: "vl", Kind: "vectorload", N: 256},
			{Name: "vl-again", Kind: "vectorload", N: 256},
			{Name: "rank16", Kind: "rank", N: 16, Variant: "pref"},
		},
		Faults: []FaultSpec{{Name: "healthy"}, {Name: "demo", Demo: true}},
	}
}

func TestValidateRejectsBadCampaigns(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Campaign)
		want string
	}{
		{"no area", func(c *Campaign) { c.Area = "" }, "area"},
		{"area with slash", func(c *Campaign) { c.Area = "a/b" }, "bare token"},
		{"bad schema", func(c *Campaign) { c.Schema = 99 }, "schema"},
		{"no machines", func(c *Campaign) { c.Machines = nil }, "machine"},
		{"no workloads", func(c *Campaign) { c.Workloads = nil }, "workload"},
		{"dup machine", func(c *Campaign) { c.Machines = append(c.Machines, MachineSpec{Name: "cedar"}) }, "duplicate"},
		{"unnamed workload", func(c *Campaign) { c.Workloads[0].Name = "" }, "name"},
		{"slash in name", func(c *Campaign) { c.Workloads[0].Name = "a/b" }, "'/'"},
		{"bad kind", func(c *Campaign) { c.Workloads[0].Kind = "mystery" }, "unknown kind"},
		{"bad variant", func(c *Campaign) { c.Workloads[2].Variant = "turbo" }, "variant"},
		{"negative size", func(c *Campaign) { c.Workloads[0].N = -1 }, "non-negative"},
		{"bad fabric", func(c *Campaign) { c.Machines[0].Fabric = "token-ring" }, "fabric"},
		{"zero jobs", func(c *Campaign) { c.Jobs = []int{0} }, "jobs"},
	}
	for _, tc := range cases {
		c := mini()
		tc.mut(c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := mini().Validate(); err != nil {
		t.Fatalf("mini campaign should validate: %v", err)
	}
}

func TestFaultSpecSourcesAreExclusive(t *testing.T) {
	fs := FaultSpec{Name: "both", Demo: true, Path: "x.json"}
	if _, err := fs.resolve(""); err == nil {
		t.Fatal("demo+path should be rejected")
	}
	plan, err := FaultSpec{Name: "healthy"}.resolve("")
	if err != nil || plan != nil {
		t.Fatalf("healthy spec: got plan=%v err=%v", plan, err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.json")
	if err := os.WriteFile(path, []byte(`{"area":"x","machines":[{"name":"m"}],"workloads":[{"name":"w","kind":"trimat"}],"surprise":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "surprise") {
		t.Fatalf("unknown field should fail load, got %v", err)
	}
}

func TestLoadResolvesFaultPathsRelativeToConfig(t *testing.T) {
	dir := t.TempDir()
	planJSON, err := json.Marshal(fault.DemoPlan())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "plan.json"), planJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := `{"area":"x","machines":[{"name":"m"}],"workloads":[{"name":"w","kind":"trimat","n":16}],"faults":[{"name":"f","path":"plan.json"}]}`
	path := filepath.Join(dir, "c.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Faults[0].resolve(c.baseDir)
	if err != nil {
		t.Fatalf("relative plan path should resolve against config dir: %v", err)
	}
	if plan.Hash() != fault.DemoPlan().Hash() {
		t.Fatalf("loaded plan differs from demo plan")
	}
}

// TestRunDeterministicAcrossJobs is the package-level half of the
// determinism gate: two executions at different worker counts must agree
// byte-for-byte on the deterministic section. (Run's internal self-check
// covers multi-pass campaigns; this covers separate processes-worth of
// state — fresh caches, fresh hubs.)
func TestRunDeterministicAcrossJobs(t *testing.T) {
	a1, err := Run(mini(), RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	a8, err := Run(mini(), RunOptions{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := a1.DeterministicBytes()
	if err != nil {
		t.Fatal(err)
	}
	b8, err := a8.DeterministicBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("deterministic sections differ between jobs=1 and jobs=8:\n%s\n---\n%s", b1, b8)
	}
	if a1.Measured.GoMaxProcs < 1 || a1.Measured.NumCPU < 1 {
		t.Errorf("host fields missing: gomaxprocs=%d num_cpu=%d", a1.Measured.GoMaxProcs, a1.Measured.NumCPU)
	}
}

func TestRunOutcomes(t *testing.T) {
	c := mini()
	c.Jobs = []int{1, 4} // exercises the internal cross-pass byte self-check
	art, err := Run(c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(art.Deterministic.Points), 6; got != want {
		t.Fatalf("points: got %d, want %d", got, want)
	}
	if art.Header.Points != 6 || art.Header.Tool != "cedarbench" || art.Header.Schema != SchemaVersion {
		t.Fatalf("bad header: %+v", art.Header)
	}
	// vl and vl-again are semantically identical: per pass, 6 lookups but
	// only 4 distinct simulations.
	fl := art.Deterministic.Fleet
	if fl.Lookups != 6 || fl.Misses != 4 || fl.Served != 2 {
		t.Fatalf("fleet stats: %+v", fl)
	}
	byID := map[string]PointResult{}
	for _, p := range art.Deterministic.Points {
		if p.SimCycles <= 0 {
			t.Errorf("%s: no simcycles", p.ID)
		}
		if len(p.Metrics) == 0 {
			t.Errorf("%s: no metrics captured", p.ID)
		}
		if len(p.Attribution) == 0 {
			t.Errorf("%s: no attribution captured", p.ID)
		}
		byID[p.ID] = p
	}
	dup, orig := byID["cedar/vl-again/healthy"], byID["cedar/vl/healthy"]
	if dup.SimCycles != orig.SimCycles {
		t.Fatalf("semantically equal points disagree: %d vs %d", dup.SimCycles, orig.SimCycles)
	}
	healthy, demo := byID["cedar/rank16/healthy"], byID["cedar/rank16/demo"]
	if healthy.Faults.Injected != 0 {
		t.Fatalf("healthy point reports injections: %+v", healthy.Faults)
	}
	if demo.Faults.Injected == 0 {
		t.Fatalf("demo-fault point reports no injections")
	}
	if demo.SimCycles <= healthy.SimCycles {
		t.Errorf("demo faults should slow the run: %d vs %d", demo.SimCycles, healthy.SimCycles)
	}
	// One measured entry per pass, no wall times (no clock injected).
	if len(art.Measured.Runs) != 2 || art.Measured.Runs[0].Jobs != 1 || art.Measured.Runs[1].Jobs != 4 {
		t.Fatalf("measured runs: %+v", art.Measured.Runs)
	}
	for _, r := range art.Measured.Runs {
		if r.WallNS != 0 {
			t.Errorf("wall time recorded without a clock: %+v", r)
		}
		if r.Mallocs == 0 {
			t.Errorf("no alloc delta recorded: %+v", r)
		}
	}
	if len(art.Measured.Points) != 0 {
		t.Errorf("per-point wall times recorded without a clock")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	art, err := Run(&Campaign{
		Area:      "rt",
		Machines:  []MachineSpec{{Name: "m"}},
		Workloads: []WorkloadSpec{{Name: "w", Kind: "trimat", N: 16}},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	if err := art.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := art.DeterministicBytes()
	b1, _ := got.DeterministicBytes()
	if !bytes.Equal(b0, b1) {
		t.Fatal("round trip changed the deterministic section")
	}

	// A wrong schema version must be refused.
	got.Header.Schema = SchemaVersion + 1
	raw, _ := got.Encode()
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema should be refused, got %v", err)
	}
}

// TestSmokeMatchesCommittedConfig keeps the built-in smoke campaign and
// the committed bench/campaigns/smoke.json from drifting apart: both are
// sources for `cedarbench run`, so they must describe the same matrix.
func TestSmokeMatchesCommittedConfig(t *testing.T) {
	committed, err := Load(filepath.Join("..", "..", "bench", "campaigns", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	committed.baseDir = ""
	want, err := json.Marshal(Smoke())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(committed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bench/campaigns/smoke.json drifted from bench.Smoke():\ncommitted: %s\nbuilt-in:  %s", got, want)
	}
	if err := Smoke().Validate(); err != nil {
		t.Fatal(err)
	}
}
