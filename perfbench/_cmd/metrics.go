package main

import (
	"math"
	"regexp"
	"sort"
	"strings"

	"cedar/internal/bench"
	"cedar/internal/scope"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's output vocabulary; BENCHMARK.json lists the
// same names and units (a test keeps them in sync).
type metricDef struct {
	name, unit string
}

// endToEnd is what a --trace 0 run prints: what a user of the simulator,
// a campaign or the daemon sees. On the sim workloads one operation is
// one simulated point; on serve-mix it is one HTTP request.
var endToEnd = []metricDef{
	{"simcycles_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// hostLayers are the buckets a traced run folds CPU samples into: one
// per cedar/internal module the workloads exercise, plus the Go runtime,
// this benchmark program itself and everything else.
var hostLayers = []string{
	"sim", "network", "gmem", "ce", "prefetch", "cache", "cmem", "ccbus",
	"cfrt", "fault", "core", "kernels", "scope", "bench", "fleet", "store",
	"serve", "runtime", "perfbench", "other",
}

// perLayer is what a --trace 1 run prints. Counts are deterministic per
// pass (they repeat exactly for a seed); host.* shares and ns_per_* costs
// come from the profiled phase; latencies from the unprofiled phase. A
// layer that does no work on a workload reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.simcycles", "cycles"},
		{"host.sim.ns_per_simcycle", "ns"},
		{"network.word_hops", "count"},
		{"network.refused_ratio", "ratio"},
		{"network.stall_cycles", "cycles"},
		{"host.network.ns_per_word_hop", "ns"},
		{"gmem.accesses", "count"},
		{"gmem.stalls", "count"},
		{"host.gmem.ns_per_access", "ns"},
		{"ce.flops", "count"},
		{"ce.wait_cycles", "cycles"},
		{"pfu.issued", "count"},
		{"pfu.refused_cycles", "cycles"},
		{"cache.hit_ratio", "ratio"},
		{"ccbus.wait_cycles", "cycles"},
		{"fault.pfu_retries", "count"},
		{"core.build_ms", "ms"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.mallocs", "count"},
		{"runtime.gc_cycles", "count"},
		{"fleet.cache.hit_ratio", "ratio"},
		{"fleet.cache.coalesced", "count"},
		{"store.get_p50_ms", "ms"},
		{"store.get_p90_ms", "ms"},
		{"store.put_p50_ms", "ms"},
		{"store.put_p90_ms", "ms"},
		{"store.hits", "count"},
		{"store.puts", "count"},
		{"serve.memory.p50_ms", "ms"},
		{"serve.disk.p50_ms", "ms"},
		{"serve.run.p50_ms", "ms"},
		{"serve.run.p90_ms", "ms"},
		{"serve.memory.requests", "count"},
		{"serve.disk.requests", "count"},
		{"serve.run.requests", "count"},
		{"serve.simulations_per_request", "ratio"},
		{"trace.overhead_pct", "%"},
		{"trace.samples", "count"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l + ".share", "ratio"})
	}
	return defs
}()

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from values; a name missing from
// values reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// layerCounts are the simulator's deterministic per-layer counts, summed
// over the points of a pass.
type layerCounts struct {
	simcycles, wordHops, offered, refused, netStall int64
	gmemAccesses, gmemStalls                        int64
	flops, ceWait, pfuIssued, pfuRefused            int64
	cacheHits, cacheMisses, busWait, pfuRetries     int64
}

func (c *layerCounts) add(o layerCounts) {
	c.simcycles += o.simcycles
	c.wordHops += o.wordHops
	c.offered += o.offered
	c.refused += o.refused
	c.netStall += o.netStall
	c.gmemAccesses += o.gmemAccesses
	c.gmemStalls += o.gmemStalls
	c.flops += o.flops
	c.ceWait += o.ceWait
	c.pfuIssued += o.pfuIssued
	c.pfuRefused += o.pfuRefused
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.busWait += o.busWait
	c.pfuRetries += o.pfuRetries
}

// metricPrefixes selects the scope counters every simulated point
// carries in its outcome: enough to derive layerCounts.
var metricPrefixes = []string{"engine.cycle", "net.", "gmem.", "ce.", "pfu.", "cluster", "fault."}

// countsOf derives layerCounts from one point's outcome.
func countsOf(o bench.Outcome) layerCounts {
	c := layerCounts{simcycles: o.SimCycles}
	for _, s := range o.Metrics {
		if s.Kind != "counter" {
			continue
		}
		switch {
		case strings.HasPrefix(s.Name, "net."):
			switch {
			case strings.HasSuffix(s.Name, ".word_hops"):
				c.wordHops += s.Value
			case strings.HasSuffix(s.Name, ".offered"):
				c.offered += s.Value
			case strings.HasSuffix(s.Name, ".refused"):
				c.refused += s.Value
			}
		case s.Name == "gmem.reads", s.Name == "gmem.writes", s.Name == "gmem.syncops":
			c.gmemAccesses += s.Value
		case s.Name == "gmem.stalls":
			c.gmemStalls += s.Value
		case s.Name == "ce.flops":
			c.flops += s.Value
		case s.Name == "ce.wait_cycles":
			c.ceWait += s.Value
		case s.Name == "pfu.issued":
			c.pfuIssued += s.Value
		case s.Name == "pfu.refused_cycles":
			c.pfuRefused += s.Value
		case s.Name == "fault.pfu_retries":
			c.pfuRetries += s.Value
		case strings.HasPrefix(s.Name, "cluster"):
			switch {
			case strings.HasSuffix(s.Name, ".cache.hits"):
				c.cacheHits += s.Value
			case strings.HasSuffix(s.Name, ".cache.misses"):
				c.cacheMisses += s.Value
			case strings.HasSuffix(s.Name, ".bus.wait_cycles"):
				c.busWait += s.Value
			}
		}
	}
	for _, r := range o.Attribution {
		if r.Class == "network" {
			c.netStall += r.Stall
		}
	}
	return c
}

// countMetrics renders the deterministic counts under their metric names.
func (c layerCounts) countMetrics(v map[string]float64) {
	v["sim.simcycles"] = float64(c.simcycles)
	v["network.word_hops"] = float64(c.wordHops)
	v["network.refused_ratio"] = ratio(c.refused, c.offered)
	v["network.stall_cycles"] = float64(c.netStall)
	v["gmem.accesses"] = float64(c.gmemAccesses)
	v["gmem.stalls"] = float64(c.gmemStalls)
	v["ce.flops"] = float64(c.flops)
	v["ce.wait_cycles"] = float64(c.ceWait)
	v["pfu.issued"] = float64(c.pfuIssued)
	v["pfu.refused_cycles"] = float64(c.pfuRefused)
	v["cache.hit_ratio"] = ratio(c.cacheHits, c.cacheHits+c.cacheMisses)
	v["ccbus.wait_cycles"] = float64(c.busWait)
	v["fault.pfu_retries"] = float64(c.pfuRetries)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// attributionConserved reports whether busy+stall+idle equals elapsed in
// every attribution row.
func attributionConserved(rows []scope.AttrRow) bool {
	for _, r := range rows {
		if r.Busy+r.Stall+r.Idle != r.Elapsed {
			return false
		}
	}
	return true
}
