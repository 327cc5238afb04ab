// Package cedar is a simulation-backed reproduction of the Cedar
// multiprocessor described in "The Cedar System and an Initial
// Performance Study" (Kuck et al., ISCA 1993).
//
// Cedar was a cluster-based shared-memory multiprocessor: four modified
// Alliant FX/8 clusters (eight computational elements each, with a shared
// four-way interleaved cache and a concurrency control bus) connected by
// two unidirectional multistage shuffle-exchange networks to a globally
// shared memory whose modules carry synchronization processors, with a
// per-CE data prefetch unit masking the global latency.
//
// This package is the public face of the library. It exposes:
//
//   - the machine model (NewMachine, Params, Options) — a deterministic
//     cycle-level simulator of the whole system;
//   - the CEDAR FORTRAN runtime abstractions (NewRuntime with XDoall,
//     SDoall, CDoall and Serial phases) for writing workloads;
//   - the paper's kernels (RankUpdate, VectorLoad, TriMat, CG);
//   - the Perfect Benchmarks® proxy suite (PerfectCodes, RunPerfect);
//   - the Practical Parallelism Test methodology (Speedup, Efficiency,
//     Instability, band classification);
//   - and the experiment harness that regenerates every table and figure
//     of the paper's evaluation (RunTable1 ... RunPPT4).
//
// A minimal program:
//
//	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
//	res, err := cedar.RankUpdate(m, 256, cedar.RKPref)
//	fmt.Printf("%.1f MFLOPS\n", res.MFLOPS)
package cedar

import (
	"cedar/internal/bench"
	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/kernels"
	"cedar/internal/params"
	"cedar/internal/perfect"
	"cedar/internal/ppt"
	"cedar/internal/scope"
	"cedar/internal/sim"
	"cedar/internal/tables"
	"cedar/internal/xylem"
)

// SetSteppedEngine sets the process-wide engine mode for machines built
// afterwards: true pins every engine to the pure per-cycle stepped
// schedule, false (the default) enables the event wheel that jumps over
// cycles where no component is due. The two schedules are required to
// produce byte-identical artifacts — the stepped-vs-event equivalence
// test runs the experiment suite both ways and compares — so this switch
// exists for that gate and for debugging, not for tuning.
var SetSteppedEngine = sim.SetSteppedMode

// SteppedEngine reports the current process-wide engine mode.
var SteppedEngine = sim.SteppedModeEnabled

// Machine is a configured Cedar system: clusters of CEs, networks, global
// memory, and allocators for placing workload data.
type Machine = core.Machine

// Params is the machine parameter set; DefaultParams returns Cedar as
// built (4 clusters × 8 CEs at 170 ns).
type Params = params.Machine

// Options selects construction variants (network type, queue depth).
type Options = core.Options

// Fabric kinds for Options.
const (
	FabricOmega    = core.FabricOmega
	FabricCrossbar = core.FabricCrossbar
)

// CycleNS is the CE instruction cycle time in nanoseconds (170 ns).
const CycleNS = params.CycleNS

// DefaultParams returns the Cedar machine as built.
func DefaultParams() Params { return params.Default() }

// ScaledParams returns a Cedar-like machine scaled to the given cluster
// count (the PPT5 probe).
func ScaledParams(clusters int) Params { return params.Scaled(clusters) }

// NewMachine builds a machine, panicking on invalid parameters; use
// core-level construction via NewMachineErr to handle errors.
func NewMachine(p Params, opt Options) *Machine { return core.MustNew(p, opt) }

// NewMachineErr builds a machine, returning configuration errors.
func NewMachineErr(p Params, opt Options) (*Machine, error) { return core.New(p, opt) }

// Result is an aggregate timing result.
type Result = core.Result

// Instruction-level workload types (for writing custom programs).
type (
	// Instr is one CE instruction.
	Instr = ce.Instr
	// Stream is a vector memory operand.
	Stream = ce.Stream
)

// Instruction opcodes and spaces.
const (
	OpScalar      = ce.OpScalar
	OpVector      = ce.OpVector
	OpGlobalLoad  = ce.OpGlobalLoad
	OpGlobalStore = ce.OpGlobalStore
	OpSync        = ce.OpSync
	OpFence       = ce.OpFence

	SpaceNone    = ce.SpaceNone
	SpaceGlobal  = ce.SpaceGlobal
	SpaceCluster = ce.SpaceCluster
)

// Runtime types: the CEDAR FORTRAN loop-scheduling layer.
type (
	// Runtime executes a phase program on a machine.
	Runtime = cfrt.Runtime
	// RuntimeConfig selects library options (Cedar sync, cluster count).
	RuntimeConfig = cfrt.Config
	// Phase is one machine-wide step.
	Phase = cfrt.Phase
	// Serial runs on CE 0.
	Serial = cfrt.Serial
	// XDoall spreads iterations across the whole machine.
	XDoall = cfrt.XDoall
	// SDoall schedules iterations on whole clusters.
	SDoall = cfrt.SDoall
	// CDoall spreads iterations across one cluster via the concurrency
	// control bus.
	CDoall = cfrt.CDoall
	// ClusterSerial runs on a cluster's master CE.
	ClusterSerial = cfrt.ClusterSerial
)

// NewRuntime builds a runtime over a machine for the given phases.
func NewRuntime(m *Machine, cfg RuntimeConfig, phases ...Phase) *Runtime {
	return cfrt.New(m, cfg, phases...)
}

// Kernels of the §4.1 memory study.
type (
	// KernelResult is a kernel run plus the monitored prefetch traffic.
	KernelResult = kernels.Result
	// RKMode selects the rank-update memory variant.
	RKMode = kernels.RKMode
	// CGConfig configures the conjugate gradient kernel.
	CGConfig = kernels.CGConfig
	// BandedConfig configures the banded matrix-vector kernel.
	BandedConfig = kernels.BandedConfig
	// MemBWPoint is one memory-characterization measurement.
	MemBWPoint = kernels.MemBWPoint
)

// Rank-update variants (Table 1).
const (
	RKNoPref = kernels.RKNoPref
	RKPref   = kernels.RKPref
	RKCache  = kernels.RKCache
)

// RankUpdate computes a rank-64 update to an n×n matrix (Table 1).
func RankUpdate(m *Machine, n int, mode RKMode) (KernelResult, error) {
	return kernels.RankUpdate(m, n, mode)
}

// VectorLoad streams words from global memory (the VL kernel of Table 2).
func VectorLoad(m *Machine, n, sweeps int) (KernelResult, error) {
	return kernels.VectorLoad(m, n, sweeps)
}

// TriMat computes a tridiagonal matrix-vector product (TM).
func TriMat(m *Machine, n int) (KernelResult, error) { return kernels.TriMat(m, n) }

// CG runs the 5-diagonal conjugate gradient solver of the PPT4 study.
func CG(m *Machine, cfg CGConfig) (KernelResult, error) { return kernels.CG(m, cfg) }

// Banded computes the banded matrix-vector product of the PPT4 CM-5
// comparison on the simulated Cedar.
func Banded(m *Machine, cfg BandedConfig) (KernelResult, error) { return kernels.Banded(m, cfg) }

// MemBW measures delivered global-memory bandwidth for a CE count and
// stride — the [GJTV91] characterization.
func MemBW(m *Machine, nCE int, stride int64, wordsPerCE int) (MemBWPoint, error) {
	return kernels.MemBW(m, nCE, stride, wordsPerCE)
}

// Perfect Benchmark proxies.
type (
	// PerfectProfile describes one Perfect code.
	PerfectProfile = perfect.Profile
	// PerfectSpec selects a variant and the Table 3 ablations.
	PerfectSpec = perfect.Spec
	// PerfectOutcome is one measured, full-scale-scaled run.
	PerfectOutcome = perfect.Outcome
)

// Perfect variants.
const (
	PerfectSerial = perfect.Serial
	PerfectKAP    = perfect.KAP
	PerfectAuto   = perfect.Auto
	PerfectHand   = perfect.Hand
)

// PerfectCodes returns the thirteen-code suite.
func PerfectCodes() []PerfectProfile { return perfect.All() }

// RunPerfect executes one Perfect code variant on a fresh machine. An
// optional Hub observes the run.
func RunPerfect(p Params, code PerfectProfile, spec PerfectSpec, obs ...*Hub) (PerfectOutcome, error) {
	return perfect.Run(p, code, spec, obs...)
}

// Methodology: the Practical Parallelism Tests of §4.3.
type Band = ppt.Band

// Performance bands.
const (
	BandHigh         = ppt.High
	BandIntermediate = ppt.Intermediate
	BandUnacceptable = ppt.Unacceptable
)

// Speedup is serial time over parallel time.
func Speedup(serial, parallel float64) float64 { return ppt.Speedup(serial, parallel) }

// Efficiency is speedup per processor.
func Efficiency(speedup float64, p int) float64 { return ppt.Efficiency(speedup, p) }

// BandOf classifies a speedup on P processors against the P/2 and
// P/(2·log₂P) thresholds.
func BandOf(speedup float64, p int) Band { return ppt.BandOfSpeedup(speedup, p) }

// Instability computes In(K, e): max/min performance after excluding the
// e most extreme outliers.
func Instability(perf []float64, e int) float64 { return ppt.Instability(perf, e) }

// Experiment harness: every table and figure of the evaluation.
type (
	// Table1Result is the rank-64 update memory study.
	Table1Result = tables.Table1Result
	// Table2Result is the latency/interarrival study.
	Table2Result = tables.Table2Result
	// SuiteResult holds all Perfect variant outcomes.
	SuiteResult = tables.SuiteResult
	// PPT4Result is the scalability study.
	PPT4Result = tables.PPT4Result
)

// RunTable1 regenerates Table 1 for matrices of order n. An optional Hub
// observes every machine in the sweep.
func RunTable1(n int, obs ...*Hub) (*Table1Result, error) { return tables.RunTable1(n, obs...) }

// RunTable2 regenerates Table 2.
func RunTable2(obs ...*Hub) (*Table2Result, error) { return tables.RunTable2(obs...) }

// RunPerfectSuite runs every variant of the suite (pass nil for all 13
// codes); feed the result to BuildTable3..BuildFigure3.
var RunPerfectSuite = tables.RunSuite

// Derived tables over a suite run.
var (
	BuildTable3  = tables.BuildTable3
	BuildTable4  = tables.BuildTable4
	BuildTable5  = tables.BuildTable5
	BuildTable6  = tables.BuildTable6
	BuildFigure3 = tables.BuildFigure3
)

// RunPPT4 regenerates the CG-vs-CM-5 scalability study.
func RunPPT4(full bool, obs ...*Hub) (*PPT4Result, error) { return tables.RunPPT4(full, obs...) }

// ReportConfig selects what WriteReport includes and at what scale.
type ReportConfig = tables.ReportConfig

// WriteReport regenerates the paper's complete evaluation as one report.
// With ReportConfig.Now left nil the output is byte-identical across
// runs (see the determinism invariants in DESIGN.md).
var WriteReport = tables.WriteReport

// Multiprogramming: the Xylem OS behaviour the paper's single-user runs
// avoided.
type TimeSharer = xylem.TimeSharer

// NewTimeSharer gang-schedules several programs onto one machine with the
// given quantum (cycles), paying Xylem's cluster-task switch cost.
func NewTimeSharer(p Params, quantum int64, tasks ...Controller) *TimeSharer {
	return xylem.NewTimeSharer(p, xylem.DefaultTasks(), quantum, tasks...)
}

// Controller feeds instructions to CEs; Runtime and TimeSharer implement it.
type Controller = ce.Controller

// FixedWork builds a uniform scalar workload for every CE — a background
// task for multiprogramming studies.
func FixedWork(instrs int, cycles int64) Controller {
	return xylem.NewFixedWork(instrs, cycles)
}

// Observability: the cedarscope hub (see internal/scope). Build a machine
// with Options{Scope: NewHub()} — or pass a Hub to any experiment runner —
// then export the run via WriteChromeTrace / WriteMetricsCSV or inspect
// Snapshot / Attribution programmatically.
type (
	// Hub is the whole-machine observability nexus: a metrics registry, a
	// cycle-stamped span tracer, and a cycle-attribution report. A nil
	// *Hub disables instrumentation at near-zero cost.
	Hub = scope.Hub
	// MetricSample is one named metric reading.
	MetricSample = scope.Sample
	// TraceSpan is one captured trace record.
	TraceSpan = scope.Span
	// AttributionRow is one component class's busy/stall/idle totals.
	AttributionRow = scope.AttrRow
)

// NewHub builds an empty observability hub.
func NewHub() *Hub { return scope.NewHub() }

// WriteScopeArtifacts writes a hub's Chrome trace JSON and metrics CSV to
// the given paths (empty path = skip) — what the CLIs' -trace/-metrics
// flags do.
var WriteScopeArtifacts = scope.WriteArtifacts

// FormatAttribution renders the per-class cycle attribution table.
var FormatAttribution = scope.FormatAttribution

// Parallel orchestration: the cedarfleet pool (see internal/fleet). Each
// simulated machine remains single-goroutine — the pool dispatches whole
// independent experiment points and reassembles results in submission
// order, so every report, JSON, and trace artifact is byte-identical to a
// sequential run.

// SetJobs sets the process-wide worker count used by the experiment
// runners (RunTable1 ... RunPPT4, RunPerfectSuite, WriteReport). n ≤ 0
// restores the default, GOMAXPROCS. The CLIs wire their -jobs flag here.
var SetJobs = fleet.SetJobs

// Jobs reports the effective worker count.
var Jobs = fleet.Jobs

// ResetRunCache drops the process-wide memoized run results. Repeated
// identical configurations normally simulate once per process; reset when
// benchmarking raw simulation speed.
var ResetRunCache = fleet.ResetCache

// RunOverheads measures the §3.2 runtime library costs.
var RunOverheads = tables.RunOverheads

// RunMemBW runs the [GJTV91] memory characterization sweep.
var RunMemBW = tables.RunMemBW

// RunSchedulingAblation compares static, self- and guided loop
// scheduling with and without Cedar synchronization.
var RunSchedulingAblation = tables.RunSchedulingAblation

// Fault injection: the cedarfault layer (see internal/fault). A Plan is
// seed-deterministic data; build a machine with Options{Faults: plan}
// (or install a process default via SetDefaultFaults, what the CLIs'
// -faults flag does) and the machine degrades instead of crashing:
// dead banks remap the interleave, NACKed or lost prefetch reads retry
// with exponential backoff, and exhausted retries surface as an
// ErrDegraded result.
type (
	// FaultPlan is a seed plus a list of fault descriptions.
	FaultPlan = fault.Plan
	// Fault is one injected defect.
	Fault = fault.Fault
	// FaultKind names a fault mechanism.
	FaultKind = fault.Kind
	// DegradedRow is one scenario of the degraded-mode table.
	DegradedRow = tables.DegradedRow
)

// Fault kinds.
const (
	FaultBankDead  = fault.BankDead
	FaultBankStall = fault.BankStall
	FaultStageJam  = fault.StageJam
	FaultLinkDrop  = fault.LinkDrop
	FaultPFUNack   = fault.PFUNack
)

// ErrDegraded marks a run that completed (or was abandoned) in degraded
// mode; check with errors.Is.
var ErrDegraded = fault.ErrDegraded

// LoadFaultPlan reads and validates a JSON fault plan file.
var LoadFaultPlan = fault.Load

// SetDefaultFaults installs (nil clears) the process-wide fault plan
// used by machines built without an explicit Options.Faults.
var SetDefaultFaults = fault.SetDefault

// DemoFaultPlan is the built-in dead-bank + stage-jam + NACK scenario.
var DemoFaultPlan = fault.DemoPlan

// RunDegraded measures the degraded-mode ablation: the prefetched
// rank-n update under each fault class, plus the given plan when
// non-nil.
var RunDegraded = tables.RunDegraded

// FormatDegraded renders the degraded-mode table.
var FormatDegraded = tables.FormatDegraded

// Benchmarking: the cedarbench campaign runner (see internal/bench). A
// BenchCampaign declares a matrix of (machine × workload × fault plan);
// RunBenchCampaign executes every point through the fleet pool and
// returns a BenchArtifact whose deterministic section (simcycles, scope
// counters, attribution, cache rates) is byte-identical at any worker
// count, with wall time and allocations kept in a separate measured
// section. cmd/cedarbench is the CLI face; scripts/check.sh runs the
// smoke campaign and diffs against the committed baseline on every PR.
type (
	// BenchCampaign is one declarative benchmark matrix.
	BenchCampaign = bench.Campaign
	// BenchMachineSpec is one machine axis entry (default Cedar plus
	// named overrides).
	BenchMachineSpec = bench.MachineSpec
	// BenchWorkloadSpec is one workload axis entry (a paper kernel plus
	// sizing).
	BenchWorkloadSpec = bench.WorkloadSpec
	// BenchFaultSpec is one fault axis entry (healthy, demo, file or
	// inline plan).
	BenchFaultSpec = bench.FaultSpec
	// BenchArtifact is a campaign execution (a BENCH_<area>.json file).
	BenchArtifact = bench.Artifact
	// BenchRunOptions tunes a campaign execution (jobs override, wall
	// clock, progress writer).
	BenchRunOptions = bench.RunOptions
	// BenchDiffOptions sets the regression thresholds for a diff.
	BenchDiffOptions = bench.DiffOptions
	// BenchDiffReport is the outcome of comparing two artifacts.
	BenchDiffReport = bench.DiffReport
)

// LoadBenchCampaign reads and validates a campaign config file.
var LoadBenchCampaign = bench.Load

// SmokeBenchCampaign returns the built-in smoke campaign check.sh runs.
var SmokeBenchCampaign = bench.Smoke

// RunBenchCampaign executes a campaign and returns its artifact.
var RunBenchCampaign = bench.Run

// ReadBenchArtifact loads a BENCH_<area>.json artifact file.
var ReadBenchArtifact = bench.ReadArtifact

// DiffBenchArtifacts compares a new artifact against an old baseline,
// flagging simcycle and allocation regressions past the thresholds.
var DiffBenchArtifacts = bench.Diff
