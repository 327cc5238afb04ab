package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestReadProfileInProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in a 400ms busy profile")
	}
	var total, spin int64
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.ns
				break
			}
		}
	}
	if spin < total/2 {
		t.Errorf("spinForProfile holds %dns of %dns; want most of the profile", spin, total)
	}
	if total < int64(100*time.Millisecond) || total > int64(2*time.Second) {
		t.Errorf("profile holds %v of CPU time for a 400ms spin", time.Duration(total))
	}
	folded := foldProfile(samples, hostLayers)
	var sum int64
	for _, l := range hostLayers {
		if _, ok := folded[l]; !ok {
			t.Errorf("fold lacks layer %q", l)
		}
		sum += folded[l]
	}
	if sum != total || len(folded) != len(hostLayers) {
		t.Errorf("fold sums to %d over %d layers, profile holds %d", sum, len(folded), total)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	known := map[string]bool{}
	for _, l := range hostLayers {
		known[l] = true
	}
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"cedar/internal/sim.(*Engine).step", "cedar/internal/bench.runPoint"}, "sim"},
		{[]string{"encoding/json.Marshal", "cedar/internal/serve.(*Server).respond.func1"}, "serve"},
		{[]string{"runtime.mallocgc", "cedar/internal/network.(*Omega).Tick"}, "runtime"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"internal/runtime/syscall.Syscall6", "os.(*File).Sync", "cedar/internal/store.(*Store).Put"}, "store"},
		{[]string{"cedar/internal/perfmon.(*Sampler).Tick"}, "other"},
		{[]string{"net/http.(*Transport).roundTrip", "main.post"}, "perfbench"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack, known); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// hitLog is a stand-in for the timing store's Get-hit log.
type hitLog map[string]int

func (h hitLog) takeHit(key string) bool {
	if h[key] == 0 {
		return false
	}
	h[key]--
	return true
}

func TestClassify(t *testing.T) {
	hits := hitLog{"k1": 1}
	steps := []struct{ source, key, want string }{
		{"run", "k0", tierRun},
		{"cache", "k1", tierDisk},   // the store answered k1 once...
		{"cache", "k1", tierMemory}, // ...so its next cache answer is memory
		{"cache", "k2", tierMemory},
		{"", "k3", ""},
		{"bogus", "k3", ""},
	}
	for _, s := range steps {
		if got := classify(s.source, s.key, hits); got != s.want {
			t.Errorf("classify(%q, %q) = %q, want %q", s.source, s.key, got, s.want)
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricNameRE.MatchString(d.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-], starting alphanumeric, at most 64 long", d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %q: unit %q is not [A-Za-z0-9_/%%.-], at most 16 long", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workload and
// metric lists identical to what the program runs and prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %q, program runs %q", names, workloadNames)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = c.defs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s = %v, program prints %v", c.what, got, want)
		}
	}
}

func TestEpisodePlanComposition(t *testing.T) {
	a, b := episodePlan(1, 0), episodePlan(2, 0)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 produce the same request sequence")
	}
	if !reflect.DeepEqual(a, episodePlan(1, 0)) {
		t.Error("seed 1 does not reproduce its request sequence")
	}
	for _, plan := range [][]step{a, b, episodePlan(1, 7)} {
		count := map[string]int{}
		keys := map[int]bool{}
		for _, s := range plan {
			count[s.tier]++
			if s.tier != tierMemory {
				if keys[s.key] {
					t.Errorf("key %d planned twice outside the hot set", s.key)
				}
				keys[s.key] = true
			}
			lo, hi := 0, hotKeys
			switch s.tier {
			case tierDisk:
				lo, hi = hotKeys, hotKeys+prefillKeys
			case tierRun:
				lo, hi = hotKeys+prefillKeys, universe
			}
			if s.key < lo || s.key >= hi {
				t.Errorf("%s step uses key %d outside [%d, %d)", s.tier, s.key, lo, hi)
			}
		}
		want := map[string]int{tierMemory: hotPerEpisode, tierDisk: diskPerEpisode, tierRun: runPerEpisode}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("tier counts %v, want %v", count, want)
		}
	}
}

// TestSeedChangesSequenceNotVerdict runs a short serve-mix at two seeds:
// the requests differ, the outputs must check out at both.
func TestSeedChangesSequenceNotVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-mix workload")
	}
	for _, seed := range []uint64{1, 2} {
		res, err := execute("serve-mix", seed, 1, false, "../refs", io.Discard)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("seed %d: correct=%v attempted=%d failed=%d", seed, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("seed %d: %d metrics, want %d", seed, len(res.Metrics), len(endToEnd))
		}
	}
}

// TestScaleCoversEveryTiming checks that the host-speed scale reaches
// every timing a pass reports and keeps the unscaled wall time.
func TestScaleCoversEveryTiming(t *testing.T) {
	if f := hostFactor(calRef, calRef); f != 1 {
		t.Errorf("hostFactor at the reference speed = %g, want 1", f)
	}
	p := passStats{
		wall:    2 * time.Second,
		lat:     []float64{4},
		getMS:   []float64{6},
		putMS:   []float64{8},
		tierLat: map[string][]float64{tierMemory: {10}, tierRun: {12}},
	}
	p.scale(0.5)
	got := []float64{p.wall.Seconds(), p.lat[0], p.getMS[0], p.putMS[0], p.tierLat[tierMemory][0], p.tierLat[tierRun][0]}
	if want := []float64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("scaled timings %v, want %v", got, want)
	}
	if p.rawWall != 2*time.Second || p.factor != 0.5 {
		t.Errorf("rawWall %v factor %g, want 2s and 0.5", p.rawWall, p.factor)
	}
}
