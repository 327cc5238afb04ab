package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cedar/internal/bench"
	"cedar/internal/serve"
	"cedar/internal/store"
)

// The serve-mix key universe is fixed, independent of the seed: keys
// [0, hotKeys) are hot, the next prefillKeys are written to the store at
// set-up, and the last freshKeys are never stored. The seed only picks
// each episode's request sequence from it, so one set of references
// covers every seed.
const (
	hotKeys     = 8
	prefillKeys = 96
	freshKeys   = 256
	universe    = hotKeys + prefillKeys + freshKeys

	// One episode replays this many requests of each tier.
	hotPerEpisode  = 180
	diskPerEpisode = 48
	runPerEpisode  = 12

	serveClients = 2
)

// Tiers a response can come from.
const (
	tierMemory = "memory"
	tierDisk   = "disk"
	tierRun    = "run"
)

var tiers = []string{tierMemory, tierDisk, tierRun}

// serveMachines are the machines serve-mix requests simulate on.
var serveMachines = [...]bench.MachineSpec{{Name: "cedar"}, {Name: "cedar-xbar", Fabric: "crossbar"}, {Name: "cedar-2cl", Clusters: 2}}

// universeRequest returns request key i: a small point on one of three
// paper-sized machines, named uniquely so every index is its own key.
func universeRequest(i int) serve.Request {
	name := fmt.Sprintf("u%03d", i)
	v := i / 4
	var w bench.WorkloadSpec
	switch i % 4 {
	case 0:
		w = bench.WorkloadSpec{Name: name, Kind: "trimat", N: 16 + 4*(v%5)}
	case 1:
		w = bench.WorkloadSpec{Name: name, Kind: "latency", N: 32 + 16*(v%4), Gap: 4 * (v % 3)}
	case 2:
		w = bench.WorkloadSpec{Name: name, Kind: "banded", N: 32 + 8*(v%3), BW: 3 + 2*(v%3)}
	default:
		w = bench.WorkloadSpec{Name: name, Kind: "cg", N: 32 + 16*(v%2), Iters: 1}
	}
	return serve.Request{Machine: serveMachines[i%len(serveMachines)], Workload: w, Metrics: metricPrefixes}
}

// step is one planned request: a universe index and the tier it must be
// served from.
type step struct {
	key  int
	tier string
}

// episodePlan is episode ep's request sequence: hot keys drawn uniformly,
// distinct prefilled keys (first touches after the restart) and distinct
// never-seen keys, shuffled together.
func episodePlan(seed uint64, ep int) []step {
	rng := rand.New(rand.NewPCG(seed, 0x5e4e<<32|uint64(ep)))
	plan := make([]step, 0, hotPerEpisode+diskPerEpisode+runPerEpisode)
	for k := 0; k < hotPerEpisode; k++ {
		plan = append(plan, step{rng.IntN(hotKeys), tierMemory})
	}
	for _, j := range rng.Perm(prefillKeys)[:diskPerEpisode] {
		plan = append(plan, step{hotKeys + j, tierDisk})
	}
	for _, j := range rng.Perm(freshKeys)[:runPerEpisode] {
		plan = append(plan, step{hotKeys + prefillKeys + j, tierRun})
	}
	rng.Shuffle(len(plan), func(a, b int) { plan[a], plan[b] = plan[b], plan[a] })
	return plan
}

// timedStore is the fleet.SecondLevel handed to the server: it times
// every Get and Put on the wrapped store and logs which keys Get
// answered, which is how the tier classifier tells a disk hit from a
// memory hit.
type timedStore struct {
	st *store.Store

	mu     sync.Mutex
	gets   []float64 // ms
	puts   []float64 // ms
	hitLog map[string]int
}

func newTimedStore(st *store.Store) *timedStore {
	return &timedStore{st: st, hitLog: map[string]int{}}
}

func (t *timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	b, ok := t.st.Get(key)
	d := float64(time.Since(start).Nanoseconds()) / 1e6
	t.mu.Lock()
	t.gets = append(t.gets, d)
	if ok {
		t.hitLog[key]++
	}
	t.mu.Unlock()
	return b, ok
}

func (t *timedStore) Put(key string, blob []byte) {
	start := time.Now()
	t.st.Put(key, blob)
	d := float64(time.Since(start).Nanoseconds()) / 1e6
	t.mu.Lock()
	t.puts = append(t.puts, d)
	t.mu.Unlock()
}

// reset forgets the timings and hit log recorded so far.
func (t *timedStore) reset() {
	t.mu.Lock()
	t.gets, t.puts, t.hitLog = nil, nil, map[string]int{}
	t.mu.Unlock()
}

// takeHit consumes one logged Get hit for key.
func (t *timedStore) takeHit(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hitLog[key] == 0 {
		return false
	}
	t.hitLog[key]--
	return true
}

// classify names the tier that served a response. X-Cedar-Source says
// whether the server simulated ("run") or not ("cache"); a cache answer
// whose key the store's Get answered is a disk hit, otherwise it came
// from memory. It returns "" for an unknown source.
func classify(source, key string, hits interface{ takeHit(string) bool }) string {
	switch source {
	case "run":
		return tierRun
	case "cache":
		if hits.takeHit(key) {
			return tierDisk
		}
		return tierMemory
	}
	return ""
}

// reply is one client-observed response.
type reply struct {
	status int
	source string
	body   []byte
	lat    time.Duration
	err    error
}

// swapHandler forwards to the current server's handler, so a restarted
// server can take over the listener.
type swapHandler struct{ cur atomic.Value }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.cur.Load().(http.Handler).ServeHTTP(w, r)
}

// serveMix is the serve-mix workload: an in-process cedarserve on
// loopback over a durable store, driven by two closed-loop clients.
type serveMix struct {
	seed uint64
	chk  *checker

	base   string // temp root inside the checkout
	tmpl   string // prefilled template store of the latest set-up
	bodies [][]byte

	ln      net.Listener
	srv     *http.Server
	served  chan error
	handler swapHandler
	clients []*http.Client

	// Per-episode state, rebuilt by restart.
	epDir string
	ts    *timedStore
	sv    *serve.Server

	// decoded caches each key's checked outcome counts.
	decoded map[int]layerCounts
}

func newServeMix(seed uint64, chk *checker) (*serveMix, error) {
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "serve-mix-")
	if err != nil {
		return nil, err
	}
	s := &serveMix{seed: seed, chk: chk, base: base, decoded: map[int]layerCounts{}}
	for i := 0; i < universe; i++ {
		b, err := json.Marshal(universeRequest(i))
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = os.RemoveAll(base)
		return nil, err
	}
	s.srv = &http.Server{Handler: &s.handler, ReadHeaderTimeout: 30 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(s.ln) }()
	for c := 0; c < serveClients; c++ {
		s.clients = append(s.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		})
	}
	return s, nil
}

// startServer opens the store at dir and swaps a fresh server over it
// onto the listener — a daemon restart.
func (s *serveMix) startServer(dir string) error {
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	s.ts = newTimedStore(st)
	s.sv = serve.New(serve.Config{Jobs: runtime.NumCPU(), Store: s.ts})
	s.handler.cur.Store(s.sv.Handler())
	return nil
}

// setup prefills a fresh template store through the server (every hot
// and prefilled key is simulated and written), then restarts a server
// over a hard-linked copy of it and warms the hot keys.
func (s *serveMix) setup() ([]time.Duration, error) {
	if s.tmpl != "" {
		if err := os.RemoveAll(s.tmpl); err != nil {
			return nil, err
		}
	}
	tmpl, err := os.MkdirTemp(s.base, "template-")
	if err != nil {
		return nil, err
	}
	s.tmpl = tmpl
	builds, err := buildMachines(serveMachines[:])
	if err != nil {
		return nil, err
	}
	if err := s.startServer(tmpl); err != nil {
		return nil, err
	}
	var prefill []step
	for k := 0; k < hotKeys+prefillKeys; k++ {
		prefill = append(prefill, step{k, tierRun})
	}
	replies, _ := s.replay(prefill)
	if _, failed := s.verify(prefill, replies, nil); failed > 0 {
		return nil, fmt.Errorf("prefill: %d of %d requests failed: %v", failed, len(prefill), s.chk.problems)
	}
	return builds, s.restart()
}

// restart links the template into a fresh episode directory, restarts
// the server over it and warms the hot keys into memory.
func (s *serveMix) restart() error {
	if s.epDir != "" {
		if err := os.RemoveAll(s.epDir); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(s.base, "episode-")
	if err != nil {
		return err
	}
	s.epDir = dir
	if err := linkTree(s.tmpl, dir); err != nil {
		return err
	}
	if err := s.startServer(dir); err != nil {
		return err
	}
	var hot []step
	for k := 0; k < hotKeys; k++ {
		hot = append(hot, step{k, tierDisk})
	}
	replies, _ := s.replay(hot)
	if _, failed := s.verify(hot, replies, nil); failed > 0 {
		return fmt.Errorf("warming hot keys: %d requests failed: %v", failed, s.chk.problems)
	}
	s.ts.reset()
	return nil
}

// linkTree recreates src's directories under dst and hard-links its
// files there. The store replaces files only by rename, never writes one
// in place, so the template stays intact; and linking writes no data,
// so a reset leaves no dirty pages for the next fsync to flush.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return os.Link(p, target)
	})
}

// warmup has nothing to do: set-up ends by warming the hot keys, which
// is part of what a restarted daemon pays.
func (s *serveMix) warmup() error { return nil }

// shape: two clients and a server admitting CPUs simulations at once,
// several thousand latencies a run. A set-up prefills 104 keys.
func (s *serveMix) shape() shape { return shape{tail: 0.99, width: runtime.NumCPU(), setups: 5} }

func (s *serveMix) prepare(i int) error {
	if i == 0 {
		return nil // set-up left a freshly restarted server
	}
	return s.restart()
}

// replay sends plan through the closed-loop clients: each takes the next
// step only after its previous reply arrived.
func (s *serveMix) replay(plan []step) ([]reply, time.Duration) {
	replies := make([]reply, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	url := "http://" + s.ln.Addr().String() + "/v1/run"
	start := time.Now()
	for _, cl := range s.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(plan) {
					return
				}
				replies[k] = post(cl, url, s.bodies[plan[k].key])
			}
		}(cl)
	}
	wg.Wait()
	return replies, time.Since(start)
}

func post(cl *http.Client, url string, body []byte) reply {
	start := time.Now()
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(start)}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, source: resp.Header.Get("X-Cedar-Source"), body: b, lat: time.Since(start), err: err}
}

// verify checks every reply of a replayed plan and classifies its tier.
// A reply fails if the request errored, was not a 200, came from another
// tier than planned, or its body differs from the key's reference or
// from any earlier body of the same key. With ps non-nil, latencies,
// tiers and the counts of simulated keys are recorded into it.
func (s *serveMix) verify(plan []step, replies []reply, ps *passStats) (ok, failed int) {
	for k, r := range replies {
		st := plan[k]
		id := fmt.Sprintf("u%03d", st.key)
		good := r.err == nil && r.status == http.StatusOK
		if !good {
			s.chk.fail("%s: status %d, error %v", id, r.status, r.err)
		}
		var head struct {
			Key string `json:"key"`
		}
		if good {
			if err := json.Unmarshal(r.body, &head); err != nil {
				good = s.chk.fail("%s: undecodable body: %v", id, err)
			}
		}
		tier := ""
		if good {
			tier = classify(r.source, head.Key, s.ts)
			if tier != st.tier {
				good = s.chk.fail("%s: served from %q, planned %q", id, tier, st.tier)
			}
		}
		var counts layerCounts
		if good {
			counts, good = s.checkBody(st.key, r.body)
		}
		if ps != nil {
			ps.lat = append(ps.lat, float64(r.lat.Nanoseconds())/1e6)
			if tier != "" {
				ps.tierLat[tier] = append(ps.tierLat[tier], float64(r.lat.Nanoseconds())/1e6)
			}
			if good && tier == tierRun {
				ps.simcycles += counts.simcycles
				ps.counts.add(counts)
			}
		}
		if good {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// checkBody checks one response body: its digest against the key's
// reference and earlier bodies, and — once per key — the outcome's
// invariants. It returns the outcome's counts.
func (s *serveMix) checkBody(key int, body []byte) (layerCounts, bool) {
	id := fmt.Sprintf("u%03d", key)
	if c, seen := s.decoded[key]; seen {
		return c, s.chk.output(id, false, pointRef{SimCycles: c.simcycles, Flops: c.flops, SHA256: digest(body)})
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return layerCounts{}, s.chk.fail("%s: undecodable body: %v", id, err)
	}
	o := resp.Outcome
	ok := true
	if o.Status != "ok" {
		ok = s.chk.fail("%s: status %q, want ok", id, o.Status)
	}
	if f := analyticFlops(universeRequest(key).Workload); f > 0 && o.Flops != f {
		ok = s.chk.fail("%s: %d flops, analytic count is %d", id, o.Flops, f)
	}
	if !attributionConserved(o.Attribution) {
		ok = s.chk.fail("%s: attribution busy+stall+idle != elapsed", id)
	}
	c := countsOf(o)
	if !s.chk.output(id, false, pointRef{SimCycles: o.SimCycles, Flops: o.Flops, SHA256: digest(body)}) || !ok {
		return c, false
	}
	s.decoded[key] = c
	return c, true
}

func (s *serveMix) pass(i int) (passStats, error) {
	plan := episodePlan(s.seed, i)
	st0, sv0 := s.ts.st.Stats(), s.sv.Stats()
	replies, wall := s.replay(plan)
	st1, sv1 := s.ts.st.Stats(), s.sv.Stats()

	ps := passStats{wall: wall, ops: len(plan), tierLat: map[string][]float64{}}
	_, ps.failed = s.verify(plan, replies, &ps)
	s.ts.mu.Lock()
	ps.getMS = append(ps.getMS, s.ts.gets...)
	ps.putMS = append(ps.putMS, s.ts.puts...)
	s.ts.mu.Unlock()
	ps.storeHits, ps.storePuts = st1.Hits-st0.Hits, st1.Puts-st0.Puts
	ps.requests, ps.simulations = sv1.Requests-sv0.Requests, sv1.Simulations-sv0.Simulations
	ps.fleetLookups = sv1.Cache.Lookups - sv0.Cache.Lookups
	ps.fleetServed = sv1.Cache.Served() - sv0.Cache.Served()
	ps.coalesced = sv1.Cache.Coalesced - sv0.Cache.Coalesced
	return ps, nil
}

// recordAll requests every key of the universe once.
func (s *serveMix) recordAll() error {
	dir, err := os.MkdirTemp(s.base, "record-")
	if err != nil {
		return err
	}
	if err := s.startServer(dir); err != nil {
		return err
	}
	var all []step
	for k := 0; k < universe; k++ {
		all = append(all, step{k, tierRun})
	}
	replies, _ := s.replay(all)
	if _, failed := s.verify(all, replies, nil); failed > 0 {
		return fmt.Errorf("%d of %d requests failed", failed, len(all))
	}
	return nil
}

// close stops the server and clients, waits for the serving goroutine to
// return, and removes the temp directory.
func (s *serveMix) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, cl := range s.clients {
		cl.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(s.base); err == nil {
		err = rerr
	}
	return err
}
