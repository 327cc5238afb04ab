// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time from a single process, checks the simulator's outputs,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an unprofiled and a CPU-profiled half and the
// metrics are the per-layer ones (see WORKLOADS.md). Host timings are
// scaled to a reference host speed (see calibrate.go).
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload sim-wide64 --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload in turn, printing one result line
// each. -write-refs re-records the output references under
// perfbench/refs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// refDir holds the output references, relative to the repository root.
const refDir = "perfbench/refs"

// runner is one workload.
type runner interface {
	// setup prepares the workload anew, replacing any earlier
	// set-up, and returns the durations of the machine builds it made.
	// It is what setup_s times.
	setup() ([]time.Duration, error)
	// warmup runs once after the last set-up, untimed, so caches fill
	// and lazy initialisation finishes before the measured passes.
	warmup() error
	// shape describes how the workload is measured.
	shape() shape
	// prepare readies pass i. Its time is not measured.
	prepare(i int) error
	// pass runs measured pass i.
	pass(i int) (passStats, error)
	// recordAll produces every output the references cover once, for
	// -write-refs.
	recordAll() error
	// close releases everything the runner holds and stops every
	// goroutine it started.
	close() error
}

// shape is what measuring a workload needs to know about it.
type shape struct {
	// tail is the latency percentile reported as latency_p99_ms. It is
	// fixed per workload, never derived from the sample count, so the
	// metric names the same percentile on a slow host as on a fast one.
	tail float64
	// width is how many CPUs the workload keeps busy; the calibration
	// probe runs on as many.
	width int
	// setups is how many times a run sets the workload up. setup_s is
	// their median; the last set-up is the one measured.
	setups int
	// byPoint takes the latency percentiles over each point's median
	// latency across the passes rather than over all samples pooled.
	byPoint bool
}

// passStats is what one measured pass did: over a sim workload one pass
// runs every point once; over serve-mix one pass replays one episode.
type passStats struct {
	wall time.Duration
	// peakRSSMB is the pass's peak resident set: the larger of what the
	// pass records itself and VmHWM read after it.
	peakRSSMB float64
	// factor is the host-speed scale of the pass (see calibrate.go);
	// scale has applied it to every timing below and to wall.
	factor    float64
	rawWall   time.Duration
	ops       int
	failed    int
	simcycles int64
	lat       []float64 // per-operation host latency, ms
	latIDs    []string  // the point each lat belongs to, where byPoint
	// counts are the deterministic simulator counts of the pass.
	counts layerCounts

	// Cache, store and serve figures; zero where the workload has none.
	fleetLookups, fleetServed, coalesced int64
	storeHits, storePuts                 int64
	tierLat                              map[string][]float64
	getMS, putMS                         []float64
	requests, simulations                int64
}

// scale converts the pass's host timings to the reference host speed.
func (p *passStats) scale(f float64) {
	p.factor, p.rawWall = f, p.wall
	p.wall = time.Duration(float64(p.wall) * f)
	for _, l := range append([][]float64{p.lat, p.getMS, p.putMS}, mapValues(p.tierLat)...) {
		for i := range l {
			l[i] *= f
		}
	}
}

func mapValues(m map[string][]float64) [][]float64 {
	var out [][]float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// rates returns the median over passes of simulated cycles and of
// operations per second of measured time.
func rates(ps []passStats) (simcycles, ops float64) {
	var cyc, n []float64
	for _, p := range ps {
		cyc = append(cyc, float64(p.simcycles)/p.wall.Seconds())
		n = append(n, float64(p.ops)/p.wall.Seconds())
	}
	return median(cyc), median(n)
}

// pointMedians returns each point's median latency over the passes.
func pointMedians(ps []passStats) []float64 {
	byID := map[string][]float64{}
	for _, p := range ps {
		for i, id := range p.latIDs {
			byID[id] = append(byID[id], p.lat[i])
		}
	}
	var out []float64
	for _, l := range byID {
		out = append(out, median(l))
	}
	return out
}

// pool gathers the per-operation latencies of a set of passes, overall
// and per serve tier.
func pool(ps []passStats) (lat []float64, tierLat map[string][]float64) {
	tierLat = map[string][]float64{}
	for _, p := range ps {
		lat = append(lat, p.lat...)
		for t, l := range p.tierLat {
			tierLat[t] = append(tierLat[t], l...)
		}
	}
	return lat, tierLat
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sim-wide64", "campaign-paper", "serve-mix"}

func newRunner(name string, seed uint64, chk *checker) (runner, error) {
	switch name {
	case "sim-wide64":
		return newWide(seed, chk), nil
	case "campaign-paper":
		return newCampaign(seed, chk), nil
	case "serve-mix":
		return newServeMix(seed, chk)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeRefs := fs.Bool("write-refs", false, "record output references at the default seed instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		if *writeRefs {
			if err := recordRefs(name, refDir); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			continue
		}
		fmt.Fprintf(stdout, "workload %s\n", name)
		res, err := execute(name, *seed, *seconds, *trace == 1, refDir, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// execute sets the workload up, measures it and returns the result line.
// Progress, provenance and a readable metric table go to w.
func execute(name string, seed uint64, seconds int, traced bool, refDir string, w io.Writer) (*result, error) {
	refs, err := loadRefs(refDir, name)
	if err != nil {
		return nil, err
	}
	chk := newChecker(refs, seed, false)
	r, err := newRunner(name, seed, chk)
	if err != nil {
		return nil, err
	}
	res, err := measureRunner(r, name, seed, seconds, traced, chk, w)
	if cerr := r.close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

func measureRunner(r runner, name string, seed uint64, seconds int, traced bool, chk *checker, w io.Writer) (*result, error) {
	prov := newProvenance(name, seed, seconds, traced)
	if sm, ok := r.(*serveMix); ok {
		prov.StoreFS = filesystemOf(sm.base)
	}

	sh := r.shape()
	var setups, builds, factors []float64
	before := calibrate(sh.width)
	for k := 0; k < sh.setups; k++ {
		start := time.Now()
		bs, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		after := calibrate(sh.width)
		f := hostFactor(before, after)
		before = after
		setups = append(setups, d.Seconds()*f)
		factors = append(factors, f)
		for _, b := range bs {
			builds = append(builds, f*float64(b.Nanoseconds())/1e6)
		}
	}
	if err := r.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	window := time.Duration(seconds) * time.Second
	if traced {
		window /= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := measure(r, 0, window, sh.width, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	var prof *profileTotals
	var tracedPasses []passStats
	if traced {
		prof = &profileTotals{ns: map[string]int64{}}
		tracedPasses, err = measure(r, len(plain), window, sh.width, prof)
		if err != nil {
			return nil, err
		}
	}

	res := &result{Correct: len(chk.problems) == 0}
	for _, p := range append(append([]passStats(nil), plain...), tracedPasses...) {
		res.Attempted += int64(p.ops)
		res.Failed += int64(p.failed)
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	lat, tierLat := pool(plain)
	if sh.byPoint {
		lat = pointMedians(plain)
	}
	var peaks []float64
	for _, p := range plain {
		peaks = append(peaks, p.peakRSSMB)
	}
	values := map[string]float64{}
	var defs []metricDef
	if !traced {
		defs = endToEnd
		values["simcycles_per_s"], values["req_per_s"] = rates(plain)
		values["latency_p50_ms"] = quantile(lat, 0.50)
		values["latency_p99_ms"] = quantile(lat, sh.tail)
		values["setup_s"] = median(setups)
		values["peak_rss_mb"] = median(peaks)
	} else {
		defs = perLayer
		layerValues(values, plain, tracedPasses, prof, builds, &ms0, &ms1, name == "serve-mix", tierLat)
	}
	res.Metrics = fill(defs, values)

	// The readable report: provenance, verdict, metrics. A struct of
	// strings and numbers cannot fail to marshal.
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", pj)
	fmt.Fprintf(w, "verdict correct=%v attempted=%d failed=%d error_rate=%g passes=%d setup_runs=%d\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), len(plain)+len(tracedPasses), len(setups))
	for _, p := range chk.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "samples latency=%d by_point=%v tail_percentile=%.4g passes_unprofiled=%d passes_profiled=%d\n",
		len(lat), sh.byPoint, 100*sh.tail, len(plain), len(tracedPasses))
	var walls, raw []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		raw = append(raw, p.rawWall.Seconds())
		factors = append(factors, p.factor)
	}
	fmt.Fprintf(w, "passes wall_s min=%.4g median=%.4g max=%.4g (unscaled median=%.4g); peak_rss_mb min=%.4g median=%.4g max=%.4g\n",
		quantile(walls, 0), median(walls), quantile(walls, 1), median(raw), quantile(peaks, 0), median(peaks), quantile(peaks, 1))
	fmt.Fprintf(w, "host_speed factor min=%.4g median=%.4g max=%.4g over %d set-ups and passes (1 = the tuning host's fast regime)\n",
		quantile(factors, 0), median(factors), quantile(factors, 1), len(factors))
	for _, t := range tiers {
		if l := tierLat[t]; len(l) > 0 {
			fmt.Fprintf(w, "tier %-6s n=%d p50_ms=%.4g p90_ms=%.4g p99_ms=%.4g\n", t, len(l), quantile(l, 0.5), quantile(l, 0.9), quantile(l, 0.99))
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// profileTotals accumulates CPU-profile samples across profiled passes.
type profileTotals struct {
	ns      map[string]int64
	samples int
}

// measure runs passes from index first until window has elapsed (at least
// one pass), recording each pass's peak resident set. It calibrates on
// width CPUs before the first pass and then after every calEvery of
// passes, and scales each block of passes by the calibrations either side
// of it. With prof non-nil every pass runs under the CPU profiler and its
// samples are folded into prof.
func measure(r runner, first int, window time.Duration, width int, prof *profileTotals) ([]passStats, error) {
	var out []passStats
	before := calibrate(width)
	block, blockStart := 0, time.Now()
	// flush calibrates and scales the passes since the last calibration.
	flush := func() {
		after := calibrate(width)
		for j := block; j < len(out); j++ {
			out[j].scale(hostFactor(before, after))
		}
		before, block, blockStart = after, len(out), time.Now()
	}
	start := time.Now()
	for i := first; len(out) == 0 || time.Since(start) < window; i++ {
		if err := r.prepare(i); err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if prof != nil {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, fmt.Errorf("profile: %w", err)
			}
		}
		p, err := r.pass(i)
		if prof != nil {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		p.peakRSSMB = max(p.peakRSSMB, peak)
		if prof != nil {
			samples, err := readProfile(buf.Bytes())
			if err != nil {
				return nil, err
			}
			for l, ns := range foldProfile(samples, hostLayers) {
				prof.ns[l] += ns
			}
			prof.samples += len(samples)
		}
		out = append(out, p)
		if time.Since(blockStart) >= calEvery {
			flush()
		}
	}
	if block < len(out) {
		flush()
	}
	return out, nil
}

// layerValues fills the per-layer metrics: counts from the first
// unprofiled pass (deterministic for a seed), latencies (tierLat among
// them) and allocation from the unprofiled half, host shares and
// per-event costs from the profiled half.
func layerValues(v map[string]float64, plain, profiled []passStats, prof *profileTotals,
	builds []float64, ms0, ms1 *runtime.MemStats, serveRates bool, tierLat map[string][]float64) {
	first := plain[0]
	first.counts.countMetrics(v)

	var total int64
	for _, ns := range prof.ns {
		total += ns
	}
	for _, l := range hostLayers {
		v["host."+l+".share"] = ratio(prof.ns[l], total)
	}
	var tc layerCounts
	for _, p := range profiled {
		tc.add(p.counts)
	}
	perEvent := func(layer string, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(prof.ns[layer]) / float64(n)
	}
	v["host.sim.ns_per_simcycle"] = perEvent("sim", tc.simcycles)
	v["host.network.ns_per_word_hop"] = perEvent("network", tc.wordHops)
	v["host.gmem.ns_per_access"] = perEvent("gmem", tc.gmemAccesses)
	v["trace.samples"] = float64(prof.samples)

	// Tracing overhead: the profiled half's throughput against the
	// unprofiled half's. serve-mix's simulated cycles are a side effect
	// of its request mix, so its throughput is requests.
	rate := func(ps []passStats) float64 {
		cyc, ops := rates(ps)
		if serveRates {
			return ops
		}
		return cyc
	}
	if base := rate(plain); base > 0 {
		v["trace.overhead_pct"] = 100 * (base - rate(profiled)) / base
	}

	v["core.build_ms"] = median(builds)
	n := float64(len(plain))
	v["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	v["runtime.mallocs"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	v["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n

	v["fleet.cache.hit_ratio"] = ratio(first.fleetServed, first.fleetLookups)
	v["fleet.cache.coalesced"] = float64(first.coalesced)
	v["store.hits"] = float64(first.storeHits)
	v["store.puts"] = float64(first.storePuts)
	v["serve.simulations_per_request"] = ratio(first.simulations, first.requests)
	for _, t := range tiers {
		v["serve."+t+".requests"] = float64(len(first.tierLat[t]))
	}
	var gets, puts []float64
	for _, p := range plain {
		gets = append(gets, p.getMS...)
		puts = append(puts, p.putMS...)
	}
	v["store.get_p50_ms"] = quantile(gets, 0.5)
	v["store.get_p90_ms"] = quantile(gets, 0.9)
	v["store.put_p50_ms"] = quantile(puts, 0.5)
	v["store.put_p90_ms"] = quantile(puts, 0.9)
	v["serve.memory.p50_ms"] = quantile(tierLat[tierMemory], 0.5)
	v["serve.disk.p50_ms"] = quantile(tierLat[tierDisk], 0.5)
	v["serve.run.p50_ms"] = quantile(tierLat[tierRun], 0.5)
	v["serve.run.p90_ms"] = quantile(tierLat[tierRun], 0.9)
}

// recordRefs runs every point (or request key) of a workload once at the
// default seed and writes the observed outputs as its references.
func recordRefs(name, dir string) error {
	refs := newRefs(name)
	chk := newChecker(refs, defaultSeed, true)
	r, err := newRunner(name, defaultSeed, chk)
	if err != nil {
		return err
	}
	err = r.recordAll()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(chk.problems) > 0 {
		return fmt.Errorf("invariants fail while recording: %s", strings.Join(chk.problems, "; "))
	}
	return refs.write(dir)
}
