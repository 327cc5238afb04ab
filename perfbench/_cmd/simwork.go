package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"cedar/internal/bench"
	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/kernels"
)

// simPoint is one simulated point of a sim workload.
type simPoint struct {
	machine bench.MachineSpec
	work    bench.WorkloadSpec
}

func (p simPoint) id(fault string) string {
	return p.machine.Name + "/" + p.work.Name + "/" + fault
}

// analyticFlops returns the flop count the kernels package exports for a
// workload spec, or 0 where it exports none.
func analyticFlops(w bench.WorkloadSpec) int64 {
	switch w.Kind {
	case "cg":
		return kernels.CGFlops(kernels.CGConfig{N: w.N, Iters: w.Iters, MaxCEs: w.MaxCEs})
	case "banded":
		return kernels.BandedFlopsCedar(kernels.BandedConfig{N: w.N, BW: w.BW, MaxCEs: w.MaxCEs})
	}
	return 0
}

func fabricOf(ms bench.MachineSpec) core.FabricKind {
	if ms.Fabric == "crossbar" {
		return core.FabricCrossbar
	}
	return core.FabricOmega
}

// buildMachines times one core.New per machine spec: the machine
// construction every point pays.
func buildMachines(specs []bench.MachineSpec) ([]time.Duration, error) {
	var out []time.Duration
	for _, ms := range specs {
		start := time.Now()
		if _, err := core.New(ms.Params(), core.Options{Fabric: fabricOf(ms), NoFaults: true}); err != nil {
			return nil, fmt.Errorf("build %s: %w", ms.Name, err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// wide is sim-wide64: the busy kernels on the 64-cluster Cedar, one point
// at a time through bench.RunSpec. The seed orders each pass's points.
// The two points cost about the same host time, so per-point latency
// has one mode and its percentiles do not straddle a gap.
type wide struct {
	seed   uint64
	chk    *checker
	points []simPoint
}

func newWide(seed uint64, chk *checker) *wide {
	c64 := bench.MachineSpec{Name: "cedar64", Scaled: 64}
	return &wide{seed: seed, chk: chk, points: []simPoint{
		{machine: c64, work: bench.WorkloadSpec{Name: "rank16-pref", Kind: "rank", N: 16, Variant: "pref"}},
		{machine: c64, work: bench.WorkloadSpec{Name: "vl128", Kind: "vectorload", N: 128, Sweeps: 1}},
	}}
}

// setup builds the machine.
func (w *wide) setup() ([]time.Duration, error) {
	return buildMachines([]bench.MachineSpec{w.points[0].machine})
}

// warmup runs one checked pass.
func (w *wide) warmup() error {
	_, err := w.pass(-1)
	return err
}

// shape: one point at a time on one CPU. A 30-second run has 40 to 100
// point latencies, so p80 keeps eight or more samples beyond it. A set-up takes
// milliseconds, so a run makes many.
func (w *wide) shape() shape { return shape{tail: 0.80, width: 1, setups: 15} }

func (w *wide) prepare(int) error { return nil }

func (w *wide) pass(i int) (passStats, error) {
	rng := rand.New(rand.NewPCG(w.seed, uint64(i)))
	var ps passStats
	for _, k := range rng.Perm(len(w.points)) {
		p := w.points[k]
		// Each point starts from a collected heap, as in a process of
		// its own. Otherwise its peak resident set depends on whether
		// the collector had reclaimed the previous point's 64-cluster
		// machine before this one was built: per-pass peaks ranged from
		// 65 to 97 MB, and the median moved 14% between two sets of
		// runs. The collection is not timed.
		if err := freshHeap(); err != nil {
			return ps, err
		}
		t0 := time.Now()
		out, err := bench.RunSpec(p.machine, p.work, nil, metricPrefixes)
		lat := time.Since(t0)
		ps.wall += lat
		peak, perr := peakRSSMB()
		if perr != nil {
			return ps, perr
		}
		ps.peakRSSMB = max(ps.peakRSSMB, peak)
		ps.ops++
		if err != nil {
			ps.failed++
			w.chk.fail("%s: %v", p.id("healthy"), err)
			continue
		}
		ps.lat = append(ps.lat, float64(lat.Nanoseconds())/1e6)
		if !w.chk.outcome(p.id("healthy"), false, out, analyticFlops(p.work)) {
			ps.failed++
		}
		ps.simcycles += out.SimCycles
		ps.counts.add(countsOf(out))
	}
	return ps, nil
}

func (w *wide) recordAll() error {
	_, err := w.pass(0)
	return err
}

func (w *wide) close() error { return nil }

// campaign is campaign-paper: the paper's 4-cluster Cedar on both fabrics
// running the paper's kernels and Table-2 latency probes, healthy and
// under a fault plan seeded from the seed, as one bench.Run campaign at
// jobs = number of CPUs. The kernel count is odd, so the median point
// latency falls inside one kernel's group of points rather than between
// two groups.
type campaign struct {
	chk  *checker
	camp *bench.Campaign
	// flops maps point IDs to their analytic flop counts.
	flops map[string]int64
}

// seededPlan is the campaign's fault scenario: slow banks, a contended
// first network stage and prefetch NACKs, mild enough that the PFU's
// retries always recover, so every point finishes "ok".
func seededPlan(seed uint64) *fault.Plan {
	return &fault.Plan{Seed: seed, Faults: []fault.Fault{
		{Kind: fault.BankStall, Module: -1, Rate: 0.02, Extra: 3},
		{Kind: fault.StageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.03},
		{Kind: fault.PFUNack, Module: -1, Rate: 0.01},
	}}
}

func newCampaign(seed uint64, chk *checker) *campaign {
	machines := []bench.MachineSpec{{Name: "cedar"}, {Name: "cedar-xbar", Fabric: "crossbar"}}
	works := []bench.WorkloadSpec{
		{Name: "rank32-nopref", Kind: "rank", N: 32, Variant: "nopref"},
		{Name: "rank32-pref", Kind: "rank", N: 32, Variant: "pref"},
		{Name: "rank32-cache", Kind: "rank", N: 32, Variant: "cache"},
		{Name: "vl512", Kind: "vectorload", N: 512, Sweeps: 1},
		{Name: "cg64", Kind: "cg", N: 64, Iters: 2},
		{Name: "trimat64", Kind: "trimat", N: 64},
		{Name: "banded64", Kind: "banded", N: 64, BW: 11},
		{Name: "banded64-bw3", Kind: "banded", N: 64, BW: 3},
		{Name: "lat2000", Kind: "latency", N: 2000},
		{Name: "lat500-gap100", Kind: "latency", N: 500, Gap: 100},
		{Name: "lat200-gap1000", Kind: "latency", N: 200, Gap: 1000},
	}
	c := &campaign{chk: chk, flops: map[string]int64{}}
	for _, ms := range machines {
		for _, ws := range works {
			p := simPoint{machine: ms, work: ws}
			c.flops[p.id("healthy")] = analyticFlops(ws)
			c.flops[p.id("seeded")] = analyticFlops(ws)
		}
	}
	c.camp = &bench.Campaign{
		Area:      "campaign-paper",
		Machines:  machines,
		Workloads: works,
		Faults:    []bench.FaultSpec{{Name: "healthy"}, {Name: "seeded", Plan: seededPlan(seed)}},
		Jobs:      []int{runtime.NumCPU()},
		Metrics:   metricPrefixes,
	}
	return c
}

// setup builds the machines.
func (c *campaign) setup() ([]time.Duration, error) {
	return buildMachines(c.camp.Machines)
}

// warmup runs one checked pass.
func (c *campaign) warmup() error {
	_, err := c.pass(-1)
	return err
}

// shape: 44 points a pass at jobs = CPUs. Their latencies form groups,
// one per kernel and fabric; pooled over passes, the median fell in the
// gap between the crossbar and omega lat2000 groups and swung 13% from
// run to run, so the percentiles are taken over the points' medians. A
// set-up takes milliseconds, so a run makes many.
func (c *campaign) shape() shape {
	return shape{tail: 0.99, width: runtime.NumCPU(), setups: 15, byPoint: true}
}

func (c *campaign) prepare(int) error { return nil }

func (c *campaign) pass(int) (passStats, error) {
	var ps passStats
	art, err := bench.Run(c.camp, bench.RunOptions{Now: time.Now})
	if err != nil {
		return ps, err
	}
	ps.wall = time.Duration(art.Measured.Runs[0].WallNS)
	for _, m := range art.Measured.Points {
		ps.lat = append(ps.lat, float64(m.WallNS)/1e6)
		ps.latIDs = append(ps.latIDs, m.ID)
	}
	for _, pr := range art.Deterministic.Points {
		ps.ops++
		if !c.chk.outcome(pr.ID, pr.Fault != "healthy", pr.Outcome, c.flops[pr.ID]) {
			ps.failed++
		}
		ps.simcycles += pr.SimCycles
		ps.counts.add(countsOf(pr.Outcome))
	}
	if want := len(c.flops); ps.ops != want {
		ps.failed += want - ps.ops
		c.chk.fail("campaign returned %d points, want %d", ps.ops, want)
	}
	f := art.Deterministic.Fleet
	ps.fleetLookups, ps.fleetServed = f.Lookups, f.Served
	return ps, nil
}

func (c *campaign) recordAll() error {
	_, err := c.pass(0)
	return err
}

func (c *campaign) close() error { return nil }
