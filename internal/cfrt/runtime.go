package cfrt

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/core"
	"cedar/internal/network"
	"cedar/internal/perfmon"
	"cedar/internal/scope"
)

// Runtime executes a phase program on a machine. It implements
// ce.Controller: CEs pull instructions, and all scheduling state advances
// through instruction completion callbacks, so every runtime action —
// claims, barriers, startup flags — costs real simulated traffic.
type Runtime struct {
	m   *core.Machine
	cfg Config
	ph  []Phase

	ces      []*ce.CE
	ceIdx    map[int]int // CE id -> participant index
	clusters []*clusterCtl
	ctl      []*ceCtl

	flagAddr uint64
	lockAddr uint64
	res      []phaseRes

	// library path lengths (cycles)
	lockPathCycles int64
	syncPathCycles int64
	pollBackoff    int64

	// tracer receives software events when attached (SetTracer).
	tracer *perfmon.Tracer

	// obs is the machine's observability hub (nil when off). Runtime
	// events double as scope counters and phase/loop trace spans.
	obs *scope.Hub
	// phaseStart[k] is the cycle the first participant entered phase k
	// (-1 until then); the phase span closes at the barrier pass, which
	// fires exactly once per phase.
	phaseStart       []int64
	nPhaseEnters     int64
	nClaims          int64
	nBarrierArrivals int64
	nCDStarts        int64
	nCDJoins         int64
}

type ceCtl struct {
	q        []*ce.Instr
	poll     func(cycle int64) bool
	finished bool
	// cdSeen is the last concurrency-bus generation this CE processed;
	// the bus broadcast can fire before a slow worker enters the phase,
	// and this counter guarantees it still joins that loop.
	cdSeen int
}

type phaseRes struct {
	counter  uint64
	barCount uint64
	barFlag  uint64
}

type clusterCtl struct {
	cl      *core.Cluster
	gen     int
	cd      *CDoall
	iterArg int
	startAt int64
	// cdStartCy is the broadcast cycle of the CDOALL in flight, the start
	// of its trace span (closed by the last join arrival).
	cdStartCy int64
	// donePhase is the index of the SDOALL phase this cluster's master
	// has completed (-1 initially); per-phase so stale completion from
	// an earlier SDOALL cannot release workers early.
	donePhase int
}

// New builds a runtime for the given machine, config and phases.
func New(m *core.Machine, cfg Config, phases ...Phase) *Runtime {
	nclusters := cfg.Clusters
	if nclusters <= 0 || nclusters > len(m.Clusters) {
		nclusters = len(m.Clusters)
	}
	r := &Runtime{
		m:           m,
		cfg:         cfg,
		ph:          phases,
		ceIdx:       make(map[int]int),
		pollBackoff: 25,
	}
	hasSDoall := false
	for _, ph := range phases {
		if _, ok := ph.(SDoall); ok {
			hasSDoall = true
		}
	}
	for c := 0; c < nclusters; c++ {
		cluster := m.Clusters[c]
		r.clusters = append(r.clusters, &clusterCtl{cl: cluster, donePhase: -1})
		for _, e := range cluster.CEs {
			if !hasSDoall && cfg.MaxCEs > 0 && len(r.ces) >= cfg.MaxCEs {
				break
			}
			r.ceIdx[e.ID] = len(r.ces)
			r.ces = append(r.ces, e)
			r.ctl = append(r.ctl, &ceCtl{})
		}
	}
	// Global words for scheduling: a phase flag, a claim lock, and
	// per-phase claim counters and barrier words, spread across modules.
	r.flagAddr = m.AllocGlobal(1)
	r.lockAddr = m.AllocGlobal(1)
	for range phases {
		r.res = append(r.res, phaseRes{
			counter:  m.AllocGlobal(1),
			barCount: m.AllocGlobal(1),
			barFlag:  m.AllocGlobal(1),
		})
	}
	r.obs = m.Scope
	r.phaseStart = make([]int64, len(phases))
	for i := range r.phaseStart {
		r.phaseStart[i] = -1
	}
	r.obs.Counter("cfrt.phase_enters", func() int64 { return r.nPhaseEnters })
	r.obs.Counter("cfrt.claims", func() int64 { return r.nClaims })
	r.obs.Counter("cfrt.barrier_arrivals", func() int64 { return r.nBarrierArrivals })
	r.obs.Counter("cfrt.cd_starts", func() int64 { return r.nCDStarts })
	r.obs.Counter("cfrt.cd_joins", func() int64 { return r.nCDJoins })
	// Library path lengths: the non-sync claim performs the full lock /
	// read / increment / write / unlock sequence over the network (≈4
	// round trips ≈ 52 cycles); the rest of the ≈30 µs iteration fetch
	// is library code modeled as scalar work. The Cedar-sync path is a
	// short stub plus a single Test-And-Add.
	r.lockPathCycles = int64(m.P.XDoallFetchLock) - 52
	if r.lockPathCycles < 0 {
		r.lockPathCycles = 0
	}
	r.syncPathCycles = 8

	for ci := range r.ces {
		r.enterPhase(ci, 0)
	}
	return r
}

// Participants returns the CEs this runtime drives.
func (r *Runtime) Participants() []*ce.CE { return r.ces }

// Run installs the runtime on its participants and runs to completion.
func (r *Runtime) Run(limit int64) (core.Result, error) {
	return r.m.RunOn(r.ces, r, limit)
}

// P returns the participant count.
func (r *Runtime) P() int { return len(r.ces) }

// Next implements ce.Controller.
func (r *Runtime) Next(ceID int, cycle int64) (*ce.Instr, ce.Status) {
	ci, ok := r.ceIdx[ceID]
	if !ok {
		return nil, ce.Finished
	}
	c := r.ctl[ci]
	for {
		if len(c.q) > 0 {
			in := c.q[0]
			c.q = c.q[1:]
			return in, ce.Ready
		}
		if c.finished {
			return nil, ce.Finished
		}
		if c.poll != nil && c.poll(cycle) {
			continue
		}
		return nil, ce.Wait
	}
}

func (r *Runtime) enq(ci int, ins ...*ce.Instr) {
	r.ctl[ci].q = append(r.ctl[ci].q, ins...)
}

// after enqueues a zero-length scalar op whose completion runs f — the
// runtime's "branch" primitive (costs one issue cycle, like real control
// flow at loop ends).
func (r *Runtime) after(ci int, f func(cycle int64)) {
	r.enq(ci, &ce.Instr{Op: ce.OpScalar, Cycles: 0, OnDone: f})
}

// enterPhase routes a participant into phase k. Panics on an unknown
// phase type — a malformed program, not a runtime condition.
func (r *Runtime) enterPhase(ci, k int) {
	if k >= len(r.ph) {
		r.ctl[ci].finished = true
		return
	}
	// The tracer may be attached after construction (phase 0 is entered
	// inside New), so the post is enqueued unconditionally and checks the
	// tracer when it fires.
	r.after(ci, func(cy int64) { r.post(ci, cy, EvPhaseEnter, int64(k)) })
	switch ph := r.ph[k].(type) {
	case Serial:
		if ci == 0 {
			r.enq(ci, ph.Body()...)
		}
		r.barrier(ci, k)

	case XDoall:
		r.startXDoall(ci, k, ph)

	case SDoall:
		r.startSDoall(ci, k, ph)

	default:
		panic(fmt.Sprintf("cfrt: unknown phase type %T", r.ph[k]))
	}
}

// barrier runs the multicluster end-of-phase barrier and then advances the
// participant to phase k+1.
func (r *Runtime) barrier(ci, k int) {
	res := &r.res[k]
	p := int64(len(r.ces))
	r.enq(ci, &ce.Instr{
		Op: ce.OpSync, Addr: res.barCount,
		Test: network.TestAlways, Mut: network.OpAdd, Value: 1,
		OnResult: func(v int64, _ bool, cy int64) {
			r.post(ci, cy, EvBarrierArrive, int64(k))
			if v == p-1 {
				// Last arrival releases the others.
				r.enq(ci, &ce.Instr{
					Op: ce.OpGlobalStore, Addr: res.barFlag, Value: 1,
					OnDone: func(cy2 int64) {
						r.post(ci, cy2, EvBarrierPass, int64(k))
						r.enterPhase(ci, k+1)
					},
				})
			} else {
				r.pollFlag(ci, res.barFlag, 1, func() { r.enterPhase(ci, k+1) })
			}
		},
	})
}

// pollFlag spins on a global word with Test-And-Read until it reaches
// want, then runs cont. Backoff doubles up to a cap so that dozens of
// waiting CEs do not turn the flag's memory module into a hot spot that
// saturates the network for the processors still computing.
func (r *Runtime) pollFlag(ci int, addr uint64, want int64, cont func()) {
	r.pollFlagBackoff(ci, addr, want, r.pollBackoff, cont)
}

const pollBackoffCap = 400

func (r *Runtime) pollFlagBackoff(ci int, addr uint64, want int64, backoff int64, cont func()) {
	r.enq(ci, &ce.Instr{
		Op: ce.OpSync, Addr: addr,
		Test: network.TestGE, TestArg: want, Mut: network.OpNone,
		OnResult: func(_ int64, passed bool, _ int64) {
			if passed {
				cont()
				return
			}
			next := backoff * 2
			if next > pollBackoffCap {
				next = pollBackoffCap
			}
			r.enq(ci, &ce.Instr{Op: ce.OpScalar, Cycles: backoff})
			r.pollFlagBackoff(ci, addr, want, next, cont)
		},
	})
}

// claim performs one iteration claim against the phase counter, honouring
// the Cedar-sync configuration, and hands the ticket to got.
func (r *Runtime) claim(ci, k int, got func(ticket int64)) {
	res := &r.res[k]
	if r.cfg.UseCedarSync {
		r.enq(ci,
			&ce.Instr{Op: ce.OpScalar, Cycles: r.syncPathCycles},
			&ce.Instr{
				Op: ce.OpSync, Addr: res.counter,
				Test: network.TestAlways, Mut: network.OpAdd, Value: 1,
				OnResult: func(v int64, _ bool, cy int64) {
					r.post(ci, cy, EvClaim, v)
					got(v)
				},
			})
		return
	}
	// Library path: scalar prologue, then lock / read / write / unlock.
	r.enq(ci, &ce.Instr{Op: ce.OpScalar, Cycles: r.lockPathCycles})
	r.takeLockThen(ci, func() {
		r.enq(ci, &ce.Instr{
			Op: ce.OpGlobalLoad, Addr: res.counter,
			OnResult: func(v int64, _ bool, _ int64) {
				r.enq(ci,
					&ce.Instr{Op: ce.OpGlobalStore, Addr: res.counter, Value: v + 1},
					&ce.Instr{Op: ce.OpGlobalStore, Addr: r.lockAddr, Value: 0,
						OnDone: func(int64) { got(v) }},
				)
			},
		})
	})
}

func (r *Runtime) takeLockThen(ci int, cont func()) {
	r.enq(ci, &ce.Instr{
		Op: ce.OpSync, Addr: r.lockAddr,
		Test: network.TestEQ, TestArg: 0, Mut: network.OpWrite, Value: 1,
		OnResult: func(_ int64, passed bool, _ int64) {
			if passed {
				cont()
				return
			}
			r.enq(ci, &ce.Instr{Op: ce.OpScalar, Cycles: 20})
			r.takeLockThen(ci, cont)
		},
	})
}

// scalarInstr builds a plain scalar-work instruction.
func scalarInstr(cycles int64) *ce.Instr {
	return &ce.Instr{Op: ce.OpScalar, Cycles: cycles}
}

// storeFlagInstr builds the phase-release store.
func (r *Runtime) storeFlagInstr(k int) *ce.Instr {
	return &ce.Instr{Op: ce.OpGlobalStore, Addr: r.flagAddr, Value: int64(k + 1)}
}
