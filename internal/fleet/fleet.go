// Package fleet is the deterministic parallel experiment orchestrator.
//
// The simulator itself is strictly single-goroutine: the engine ticks
// components in registration order and that order is part of the model.
// What fleet parallelizes is the level above — independent experiment
// points (one whole machine simulation each: a table row, an ablation
// configuration, a Perfect-code variant, a PPT sweep point). Jobs are
// dispatched to a bounded worker pool and results are reassembled in
// submission order, so every report, JSON and trace artifact is
// byte-identical to a sequential run. Per-job scope hubs are forked from
// the caller's hub and adopted back in submission order (scope.Hub.Fork /
// Adopt), which keeps -trace and -metrics output stable under any worker
// count.
//
// A content-addressed run cache (Cache, keyed via Key over machine
// parameters, workload profile and scheduling policy) memoizes repeated
// configurations so they simulate once per process. Caching applies only
// to unobserved jobs: a cache hit skips the simulation, so it cannot
// replay instrumentation, and jobs running under a hub therefore always
// execute.
package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cedar/internal/scope"
)

// Job is one experiment point: an independent simulation (or any other
// self-contained computation) producing a T.
type Job[T any] struct {
	// Key, when non-empty, memoizes the job in the run cache. It must be
	// content-addressed over every input that affects the result (build it
	// with Key). Jobs observed by a hub ignore it.
	Key string
	// Run executes the point. hub is the job's private scope view (nil
	// when the caller runs unobserved); the job must build all mutable
	// state — machine, runtime, hub sub-namespaces — from scratch so
	// nothing is shared with concurrently running jobs.
	Run func(hub *scope.Hub) (T, error)
}

// Config controls one Run call.
type Config struct {
	// Jobs is the worker count; 0 means the process-wide default
	// (SetJobs, falling back to GOMAXPROCS).
	Jobs int
	// Hub, when non-nil, observes every job through a forked child hub
	// that is adopted back in submission order.
	Hub *scope.Hub
	// Cache overrides the process-wide run cache. nil selects the shared
	// cache; use a private Cache (or clear the shared one) in benchmarks
	// that must re-simulate.
	Cache *Cache
}

// defaultJobs holds the process-wide worker default set via SetJobs;
// 0 means "use GOMAXPROCS".
var defaultJobs atomic.Int32

// SetJobs sets the process-wide default worker count used when
// Config.Jobs is zero. n <= 0 restores the GOMAXPROCS default. CLIs wire
// their -jobs flag here.
func SetJobs(n int) {
	if n < 0 {
		n = 0
	}
	defaultJobs.Store(int32(n))
}

// Jobs returns the process-wide default worker count.
func Jobs() int {
	if n := defaultJobs.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the jobs on a bounded worker pool and returns their
// results in submission order. With one worker (the default on a
// single-CPU host, or Config{Jobs: 1}) jobs run inline on the caller's
// goroutine against the caller's hub — exactly the pre-fleet sequential
// code path. With more workers each job runs against a forked hub;
// children are adopted back in submission order after all jobs finish, so
// artifacts are byte-identical to the sequential run. On failure the
// error of the earliest-submitted failing job is returned.
//
// Panics if a Job.Run panics: worker goroutines capture component panics
// and the first recorded one is rethrown on the caller's goroutine after
// the pool drains, so a panicking job poisons the Run call — where the
// caller can recover — and never kills the process from a goroutine
// nobody owns. The remaining jobs still run to completion before the
// rethrow.
func Run[T any](cfg Config, jobs []Job[T]) ([]T, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	cache := cfg.Cache
	if cache == nil {
		cache = shared
	}
	workers := cfg.Jobs
	if workers <= 0 {
		workers = Jobs()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]T, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			out, err := runOne(j, cfg.Hub, cache)
			if err != nil {
				return nil, err
			}
			results[i] = out
		}
		return results, nil
	}

	hubs := make([]*scope.Hub, len(jobs))
	errs := make([]error, len(jobs))
	var rec recovered
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow nondeterminism the pool runs whole independent simulations; each engine stays single-goroutine and results merge in submission order
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runGuarded(&rec, jobs[i], cfg.Hub, cache, hubs, results, errs, i)
			}
		}()
	}
	wg.Wait()
	if p := rec.first(); p != nil {
		// Resurface the original panic where the caller can see (and
		// recover from) it. Hubs are not adopted: a panicked pass has no
		// coherent artifact to merge.
		panic(p)
	}
	for _, h := range hubs {
		cfg.Hub.Adopt(h)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runGuarded executes one pool job with panic capture: a panicking
// Job.Run is recorded in rec for Run to rethrow on the caller's
// goroutine, and the worker moves on to the next job.
func runGuarded[T any](rec *recovered, j Job[T], parent *scope.Hub, cache *Cache,
	hubs []*scope.Hub, results []T, errs []error, i int) {
	defer rec.capture()
	hubs[i] = parent.Fork()
	results[i], errs[i] = runOne(j, hubs[i], cache)
}

// recovered holds the first panic captured by the worker pool, for the
// caller's goroutine to rethrow.
type recovered struct {
	mu sync.Mutex
	p  any
}

// capture is runGuarded's deferred recovery: it records the first
// worker panic for Run to rethrow.
func (r *recovered) capture() {
	if p := recover(); p != nil {
		r.mu.Lock()
		if r.p == nil {
			r.p = p
		}
		r.mu.Unlock()
	}
}

func (r *recovered) first() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.p
}

// cacheCopy is the deep-copy hook runOne uses on every cached return. A
// package variable only so the copy-failure fallback (recompute, never
// alias) stays testable; production code always runs deepCopy.
var cacheCopy = deepCopy

// runOne executes one job, through the cache when it is unobserved and
// keyed.
func runOne[T any](j Job[T], hub *scope.Hub, cache *Cache) (T, error) {
	if j.Key != "" && hub == nil && cache != nil {
		v, err := cache.do(j.Key, func() (any, error) { return j.Run(nil) })
		if err != nil {
			var zero T
			return zero, err
		}
		if tv, ok := v.(T); ok {
			// Every caller — including the one that just computed the
			// value — gets a deep copy, so mutating a returned result
			// can never corrupt the cached original or a sibling hit.
			if cp, ok := cacheCopy(tv).(T); ok {
				return cp, nil
			}
			// The copy machinery could not reproduce T. Fall through and
			// recompute: handing out the cached value itself would alias
			// cache internals to a caller that is free to mutate them.
		}
		// A key collision across result types (or an uncopyable value) is
		// recomputed rather than served a foreign or shared reference.
	}
	return j.Run(hub)
}
