// Package serve is the experiment-serving daemon core behind cedarserve:
// an HTTP/JSON front end over the bench vocabulary. A client POSTs one
// experiment point — machine spec × workload spec × optional fault spec —
// and receives the deterministic outcome artifact as the response body.
//
// Three properties carry over from the rest of the module:
//
//   - Byte-determinism. The response body for a given request is computed
//     once, cached as bytes, and every later identical request is served
//     those exact bytes. A cached response is byte-identical to a fresh
//     simulation — the same invariant the -jobs equality gates pin,
//     extended across process restarts when a durable store backs the
//     cache.
//   - Single flight. In-flight identical requests coalesce on the fleet
//     run cache: the first computes, the rest wait and share the result.
//   - Crash isolation. A panicking simulation is captured by the handler
//     and reported as a 500 error response; it poisons only the waiters
//     coalesced on the same key (the key stays retryable) and never
//     takes down the daemon.
//
// Admission is a bounded worker pool: at most Config.Jobs simulations run
// concurrently, enforced by a semaphore acquired inside the compute path —
// coalesced waiters and cache hits never hold a slot.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"cedar/internal/bench"
	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/scope"
)

// SchemaVersion stamps every response body (and its cache key), so a
// response-shape change can never serve stale bytes from a store written
// by an older daemon.
const SchemaVersion = 1

// MaxRequestBytes bounds a /v1/run request body. A legitimate submission
// is a few hundred bytes — an inline fault plan a few KiB — so anything
// past the bound is refused with 413 before it is buffered.
const MaxRequestBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Jobs bounds concurrently running simulations; 0 means the fleet
	// process default (GOMAXPROCS unless fleet.SetJobs overrode it).
	Jobs int
	// Store, when non-nil, backs the in-process response cache with a
	// durable second level — internal/store's Store is the intended
	// implementation. Responses survive daemon restarts through it.
	Store fleet.SecondLevel
	// Hub, when non-nil, receives the server's serve.* counters and the
	// response cache's fleet.cache.* counters.
	Hub *scope.Hub
}

// Request is one submitted experiment point. The specs are exactly the
// bench campaign vocabulary; unknown fields are rejected so a typoed
// knob can never silently run the default configuration.
type Request struct {
	Machine  bench.MachineSpec  `json:"machine"`
	Workload bench.WorkloadSpec `json:"workload"`
	// Fault optionally injects a plan: Demo or an inline Plan. Path is
	// rejected — the daemon does not read server-side files on behalf of
	// clients.
	Fault *bench.FaultSpec `json:"fault,omitempty"`
	// Metrics filters the scope snapshot captured into the outcome by
	// name prefix; empty selects bench.DefaultMetrics.
	Metrics []string `json:"metrics,omitempty"`
}

// Response is the response body for a served experiment point.
type Response struct {
	Schema int `json:"schema"`
	// Key is the content-addressed cache key the response is stored
	// under — equal keys guarantee byte-equal bodies.
	Key      string        `json:"key"`
	Machine  string        `json:"machine,omitempty"`
	Workload string        `json:"workload,omitempty"`
	Outcome  bench.Outcome `json:"outcome"`
}

// errorBody is the JSON error envelope for non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

// Stats is a snapshot of the server's request counters.
type Stats struct {
	// Requests counts run submissions accepted for processing (past
	// decode and validation).
	Requests int64 `json:"requests"`
	// BadRequests counts submissions rejected with a 400.
	BadRequests int64 `json:"bad_requests"`
	// Simulations counts actual simulation executions — Requests minus
	// the lookups answered by the cache tiers.
	Simulations int64 `json:"simulations"`
	// Panics counts simulation panics converted into 500 responses.
	Panics int64 `json:"panics"`
	// Cache is the response cache's counter snapshot.
	Cache fleet.CacheStats `json:"cache"`
}

// Server computes and caches experiment responses. Create with New;
// serve its Handler.
type Server struct {
	cache *fleet.Cache
	sem   chan struct{}

	requests    atomic.Int64
	badRequests atomic.Int64
	simulations atomic.Int64
	panics      atomic.Int64
	writeErrors atomic.Int64
}

// runSpec is the simulation entry point — a package variable only so
// tests can substitute a panicking or counting implementation.
var runSpec = bench.RunSpec

// New builds a Server with a fresh response cache, optionally backed by
// cfg.Store and observed through cfg.Hub.
func New(cfg Config) *Server {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = fleet.Jobs()
	}
	s := &Server{
		cache: fleet.NewCache(),
		sem:   make(chan struct{}, jobs),
	}
	if cfg.Store != nil {
		s.cache.SetStore(cfg.Store)
	}
	if cfg.Hub != nil {
		s.cache.Publish(cfg.Hub)
		cfg.Hub.Counter("serve.requests", func() int64 { return s.requests.Load() })
		cfg.Hub.Counter("serve.badrequests", func() int64 { return s.badRequests.Load() })
		cfg.Hub.Counter("serve.simulations", func() int64 { return s.simulations.Load() })
		cfg.Hub.Counter("serve.panics", func() int64 { return s.panics.Load() })
		cfg.Hub.Counter("serve.writeerrors", func() int64 { return s.writeErrors.Load() })
	}
	return s
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Load(),
		BadRequests: s.badRequests.Load(),
		Simulations: s.simulations.Load(),
		Panics:      s.panics.Load(),
		Cache:       s.cache.Stats(),
	}
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/run    submit one experiment point, receive its Response
//	GET  /v1/stats  server and cache counters (operational, not cached)
//	GET  /healthz   liveness probe
//
// Any other method on these paths is a 405 from the mux's method
// patterns.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := w.Write([]byte("ok\n")); err != nil {
			s.writeErrors.Add(1)
		}
	})
	return mux
}

// handleRun decodes, validates and executes one submission. The compute
// path runs inline on the request goroutine through the fleet cache, so
// identical concurrent submissions coalesce; a simulation panic unwinds
// to the deferred recovery here and becomes a 500.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("simulation panicked: %v", p))
		}
	}()

	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, plan, metrics, err := s.decode(r)
	if err != nil {
		s.badRequests.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, err.Error())
		return
	}
	s.requests.Add(1)

	body, source, err := s.respond(req, plan, metrics)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The source tier travels in a header, never the body: bodies must
	// stay byte-identical whether computed, coalesced, or cache-served.
	w.Header().Set("X-Cedar-Source", source)
	if _, err := w.Write(body); err != nil {
		s.writeErrors.Add(1)
	}
}

// decode parses and validates a submission, resolving its fault plan and
// metric filter. All rejections are client errors. The whole body is
// read, so a size bound on it also catches padding after the JSON value.
func (s *Server) decode(r *http.Request) (Request, *fault.Plan, []string, error) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, nil, fmt.Errorf("decoding request: %w", err)
	}
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		return req, nil, nil, fmt.Errorf("reading request: %w", err)
	}
	if err := req.Machine.Validate(); err != nil {
		return req, nil, nil, err
	}
	if err := req.Workload.Validate(); err != nil {
		return req, nil, nil, err
	}
	plan, err := resolveFault(req.Fault)
	if err != nil {
		return req, nil, nil, err
	}
	metrics := req.Metrics
	if len(metrics) == 0 {
		metrics = bench.DefaultMetrics
	}
	return req, plan, metrics, nil
}

// resolveFault materializes a request's fault plan: nil (healthy), the
// built-in demo plan, or a validated inline plan. Plan files are a
// campaign-runner affordance; a daemon reading server-side paths named
// by clients would be a confused deputy, so Path is rejected.
func resolveFault(fs *bench.FaultSpec) (*fault.Plan, error) {
	if fs == nil {
		return nil, nil
	}
	if fs.Path != "" {
		return nil, errors.New("serve: fault.path is not accepted; inline the plan or use demo")
	}
	if fs.Demo && fs.Plan != nil {
		return nil, errors.New("serve: fault demo and plan are mutually exclusive")
	}
	switch {
	case fs.Demo:
		return fault.DemoPlan(), nil
	case fs.Plan != nil:
		if err := fs.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("serve: fault plan: %w", err)
		}
		return fs.Plan, nil
	}
	return nil, nil
}

// respond produces the response body for a validated submission — from
// the cache tiers when possible, by simulating otherwise — plus the tier
// it came from ("run" for a fresh simulation, "cache" for anything
// served without one: memory hit, coalesced wait, or durable store).
func (s *Server) respond(req Request, plan *fault.Plan, metrics []string) ([]byte, string, error) {
	key := requestKey(req, plan, metrics)
	computed := false
	job := fleet.Job[[]byte]{
		Key: key,
		Run: func(*scope.Hub) ([]byte, error) {
			// Admission: bound concurrent simulations, not concurrent
			// requests — only the computing presenter holds a slot.
			s.sem <- struct{}{}
			defer func() { <-s.sem }()
			computed = true
			s.simulations.Add(1)
			out, err := runSpec(req.Machine, req.Workload, plan, metrics)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(Response{
				Schema:   SchemaVersion,
				Key:      key,
				Machine:  req.Machine.Name,
				Workload: req.Workload.Name,
				Outcome:  out,
			})
			if err != nil {
				return nil, err
			}
			return append(body, '\n'), nil
		},
	}
	res, err := fleet.Run(fleet.Config{Jobs: 1, Cache: s.cache}, []fleet.Job[[]byte]{job})
	if err != nil {
		return nil, "", err
	}
	source := "cache"
	if computed {
		source = "run"
	}
	return res[0], source, nil
}

// requestKey builds the content-addressed key a response is cached and
// stored under: the schema version plus every semantic input, with the
// fault plan folded in as its fingerprint (plans are pointers, whose
// %#v rendering is not stable). Machine and workload names participate
// because they appear in the response body — equal keys must mean
// byte-equal bodies.
func requestKey(req Request, plan *fault.Plan, metrics []string) string {
	fp := ""
	if plan != nil {
		fp = plan.Fingerprint()
	}
	return fleet.Key("serve", SchemaVersion, req.Machine, req.Workload, fp,
		strings.Join(metrics, ","))
}

// handleStats reports the server's counters. Operational data — the
// hit/coalesced split is timing-dependent, so this endpoint is never
// cached or byte-compared.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(s.Stats())
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if _, err := w.Write(append(body, '\n')); err != nil {
		s.writeErrors.Add(1)
	}
}

// writeError sends a JSON error envelope with the given status.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, err := json.Marshal(errorBody{Error: msg})
	if err != nil {
		// A string field cannot fail to marshal; guard anyway.
		body = []byte(`{"error":"internal"}`)
	}
	if _, err := w.Write(append(body, '\n')); err != nil {
		s.writeErrors.Add(1)
	}
}
