package core

import (
	"testing"

	"cedar/internal/ce"
	"cedar/internal/params"
	"cedar/internal/scope"
)

// attribProgram touches every attributed class: global vector traffic
// (gmem, network), prefetched and plain streams (PFU), cluster cache
// loads and stores (cache, cmem), synchronization (gmem sync
// processors), and a fence.
func attribProgram(gbase, lbase uint64) *ce.Program {
	return &ce.Program{Instrs: []*ce.Instr{
		{Op: ce.OpScalar, Cycles: 20, Flops: 10},
		{Op: ce.OpVector, N: 256, Flops: 1,
			Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: gbase, Stride: 1, PrefBlock: 128}},
			Dst:  &ce.Stream{Space: ce.SpaceGlobal, Base: gbase + 1024, Stride: 1}},
		{Op: ce.OpClusterStore, Addr: lbase, Value: 7},
		{Op: ce.OpClusterLoad, Addr: lbase},
		{Op: ce.OpVector, N: 64, Flops: 1,
			Srcs: []ce.Stream{{Space: ce.SpaceCluster, Base: lbase, Stride: 1}}},
		{Op: ce.OpSync, Addr: gbase + 4000},
		{Op: ce.OpGlobalStore, Addr: gbase + 2048, Value: 3},
		{Op: ce.OpFence},
	}}
}

// TestAttributionConservation pins the conservation law: for every
// component class, busy + stall + idle must equal the class's elapsed
// component-cycles exactly. The pre-event-wheel attribution mixed event
// counters (hits, claims, refusals) into per-cycle buckets, which let
// busy+stall exceed elapsed under load; the disjoint per-cycle
// classification counters make the sum an invariant. It is checked on
// cluster 0's eight CEs (plus direct concurrency-bus traffic) and on all
// 32 CEs across all four clusters, where cross-cluster network and
// memory contention is heaviest.
func TestAttributionConservation(t *testing.T) {
	t.Run("cluster0", func(t *testing.T) {
		hub := scope.NewHub()
		m := MustNew(params.Default(), Options{Scope: hub, NoFaults: true})
		prog := attribProgram(m.AllocGlobal(4096), m.Clusters[0].AllocLocal(512))
		if _, err := m.RunOn(m.CEs[:8], prog, 2_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		// Drive the concurrency bus directly (instructions do not reach
		// it), including a transaction booked past the end of the run so
		// the ccbus busy clamp is exercised.
		bus := m.Clusters[0].Bus
		bus.ConcurrentStart(0, 16)
		for i := 0; i < 20; i++ {
			bus.Claim(int64(i))
		}
		bus.ConcurrentStart(m.Engine.Cycle(), 4)
		checkConservation(t, hub, "ce", "gmem", "cache", "ccbus", "network")
	})
	t.Run("all-clusters", func(t *testing.T) {
		hub := scope.NewHub()
		m := MustNew(params.Default(), Options{Scope: hub, NoFaults: true})
		prog := attribProgram(m.AllocGlobal(8192), m.Clusters[0].AllocLocal(512))
		if _, err := m.Run(prog, 5_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		checkConservation(t, hub, "ce", "gmem", "cache", "network")
	})
}

// checkConservation asserts busy + stall + idle == elapsed for every
// attributed class, and that each class in busy saw busy cycles.
func checkConservation(t *testing.T, hub *scope.Hub, busy ...string) {
	t.Helper()
	sawBusy := map[string]bool{}
	for _, r := range hub.Attribution() {
		if r.Busy < 0 || r.Stall < 0 || r.Idle < 0 || r.Elapsed <= 0 {
			t.Errorf("%s: negative or empty attribution: %+v", r.Class, r)
		}
		if got := r.Busy + r.Stall + r.Idle; got != r.Elapsed {
			t.Errorf("%s: busy+stall+idle = %d, want elapsed %d (busy %d stall %d idle %d)",
				r.Class, got, r.Elapsed, r.Busy, r.Stall, r.Idle)
		}
		if r.Busy > 0 {
			sawBusy[r.Class] = true
		}
	}
	for _, class := range busy {
		if !sawBusy[class] {
			t.Errorf("class %q reported no busy cycles; the workload should exercise it", class)
		}
	}
}
