// Package sim provides the deterministic simulation engine used by the
// Cedar machine model.
//
// Components register with an Engine and are ticked in registration
// order. Ticking order is part of the model: producers are registered
// before the fabrics that carry their traffic, so a request can traverse
// at most one hop per cycle and all timing is reproducible.
//
// The engine is an event wheel over that fixed order. Components
// implementing Sleeper post their next effective-tick cycle; within a
// cycle only the components that are due are ticked, and when nothing at
// all is due the clock jumps straight to the earliest pending wake.
// Per-cycle ticking of everything survives only while a non-Sleeper
// component is registered (the busy-region rule: such a component is
// assumed live every cycle) or while SetSteppedMode pins the engine to
// the pure stepped schedule. Because due components still run in
// registration order and a skipped component's Tick is by contract a
// no-op, the schedule of effective ticks — and therefore every
// deterministic artifact — is byte-identical to the stepped run.
package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Never is the NextWakeup value meaning "no effective tick is scheduled";
// a component returning it sleeps until something calls its Handle.Wake.
const Never = int64(math.MaxInt64)

// Component is a piece of simulated hardware advanced once per cycle.
type Component interface {
	// Name identifies the component in diagnostics.
	Name() string
	// Tick advances the component by one cycle. cycle is the cycle number
	// being executed, starting at 0.
	Tick(cycle int64)
}

// Idler is implemented by components that can report quiescence; the
// engine's RunUntilIdle uses it to detect completion.
type Idler interface {
	// Idle reports whether the component has no work in flight.
	Idle() bool
}

// Sleeper is implemented by components whose Tick is a guaranteed no-op
// until a known future cycle — the scheduling half of the event wheel.
// The engine skips a sleeping component's ticks entirely (and jumps the
// clock when every component sleeps), so NextWakeup must account for all
// state the component can see, including pending work on its input
// ports. Work that arrives while the component sleeps must wake it via
// the Handle returned by Register (producers call Wake on their
// consumers' behalf); a wake that turns out to be early is harmless —
// the component re-arms through the NextWakeup requery after its tick.
// Registering only Sleeper components also asserts that any RunUntil
// predicate driving the engine depends on component state alone (never
// on the raw cycle count), since predicates are not re-evaluated on
// skipped cycles.
type Sleeper interface {
	// NextWakeup returns the earliest cycle ≥ now at which Tick may have
	// an effect, or Never when no future work is visible. Returning now
	// keeps the component ticking every cycle.
	NextWakeup(now int64) int64
}

// steppedMode is the process-wide engine-mode default, captured by New:
// when set, engines tick every component every cycle with no skips or
// jumps — the pure stepped schedule the event wheel must reproduce
// byte-for-byte. It exists for the stepped-vs-event equivalence gates
// and follows the same process-wide-default pattern as the fleet's jobs
// count.
var steppedMode atomic.Bool

// SetSteppedMode sets the process-wide engine mode for engines built
// afterwards: true forces pure per-cycle stepping, false (the default)
// enables the event wheel.
func SetSteppedMode(on bool) { steppedMode.Store(on) }

// SteppedModeEnabled reports the current process-wide default.
func SteppedModeEnabled() bool { return steppedMode.Load() }

// wakeEntry is one pending (cycle, component) wake in the wheel's heap.
type wakeEntry struct {
	at  int64
	idx int
}

// Engine drives a set of components with a shared clock.
type Engine struct {
	components []Component
	// idlers caches the components implementing Idler at Register time, so
	// the idle scan does no per-cycle type assertions and IdleCount and
	// RunUntilIdle can never disagree about who is quiescent.
	idlers []namedIdler
	// sched holds, per component index, its Sleeper half (nil for plain
	// components, which are ticked every cycle).
	sched []Sleeper
	// wake is the authoritative next-wake cycle per component; entries for
	// plain components are unused. The heap indexes the same values with
	// lazy invalidation: an entry is live iff its at equals wake[idx].
	wake []int64
	heap []wakeEntry
	// plain counts registered non-Sleeper components; while it is nonzero
	// the clock can never jump (the busy-region rule).
	plain   int
	cycle   int64
	skipped int64
	// stepped pins this engine to the pure per-cycle schedule (captured
	// from the process-wide mode at New).
	stepped bool
	// inCycle/pos track the in-progress tick pass so wakes aimed at or
	// before the current cycle land on the earliest cycle the target can
	// still legally execute: the current one if its turn is still ahead,
	// the next one otherwise.
	inCycle bool
	pos     int
}

type namedIdler struct {
	c Component
	i Idler
}

// ErrCycleLimit is returned by RunUntil and RunUntilIdle when the predicate
// does not become true within the cycle budget. The error text names the
// components still reporting busy, so stalls are diagnosable.
var ErrCycleLimit = errors.New("sim: cycle limit exceeded")

// ErrNonPositiveLimit is returned by RunUntil and RunUntilIdle when the
// cycle budget is zero or negative: such a budget is a caller bug, not a
// run that legitimately ran out of cycles, and no component is ticked.
var ErrNonPositiveLimit = errors.New("sim: non-positive cycle limit")

// New returns an empty engine at cycle 0 in the process-wide mode.
func New() *Engine {
	return &Engine{stepped: steppedMode.Load()}
}

// Handle names one registered component and carries wakes to it. The
// zero Handle is valid and inert, so optional wiring can stay nil-free.
type Handle struct {
	e   *Engine
	idx int
}

// Wake schedules the handle's component to tick no later than cycle at
// (clamped to the earliest cycle it can still execute). It is how
// producers announce cross-component work — a packet offered to a
// fabric, a reply pushed to a port — to consumers that may be sleeping.
// Wakes are monotone: they only ever move a component's next tick
// earlier, so a spurious Wake costs one no-op tick and nothing else.
func (h Handle) Wake(at int64) {
	e := h.e
	if e == nil || e.stepped || e.sched[h.idx] == nil {
		return
	}
	if at < e.wake[h.idx] {
		e.setWake(h.idx, at)
	}
}

// setWake records component i's next wake as at (clamping to the
// earliest legally executable cycle: the next one once the in-progress
// pass has reached i) and indexes it in the heap.
func (e *Engine) setWake(i int, at int64) {
	floor := e.cycle
	if e.inCycle && i <= e.pos {
		floor = e.cycle + 1
	}
	if at < floor {
		at = floor
	}
	e.wake[i] = at
	if at != Never {
		e.heap = append(e.heap, wakeEntry{at: at, idx: i})
		e.siftUp(len(e.heap) - 1)
	}
}

// siftUp restores the heap's order after an append.
func (e *Engine) siftUp(i int) {
	hp := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if hp[p].at <= hp[i].at {
			return
		}
		hp[p], hp[i] = hp[i], hp[p]
		i = p
	}
}

// popHeap removes the heap's minimum entry.
func (e *Engine) popHeap() {
	hp := e.heap
	n := len(hp) - 1
	hp[0] = hp[n]
	e.heap = hp[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && hp[l].at < hp[small].at {
			small = l
		}
		if r < n && hp[r].at < hp[small].at {
			small = r
		}
		if small == i {
			return
		}
		hp[i], hp[small] = hp[small], hp[i]
		i = small
	}
}

// nextWakeOf returns the heap's earliest live wake cycle, discarding
// stale entries (whose at no longer matches the component's
// authoritative wake) along the way. Never means no component has a
// pending wake.
func (e *Engine) nextWakeOf() int64 {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if top.at == e.wake[top.idx] {
			return top.at
		}
		e.popHeap()
	}
	return Never
}

// Register appends components to the tick order and returns their
// handles, one per component, for wake wiring. Newly registered
// components are due immediately; their first NextWakeup requery (at the
// next run entry) installs the real schedule, so registration order and
// wiring order never race.
func (e *Engine) Register(cs ...Component) []Handle {
	hs := make([]Handle, len(cs))
	for k, c := range cs {
		i := len(e.components)
		e.components = append(e.components, c)
		if id, ok := c.(Idler); ok {
			e.idlers = append(e.idlers, namedIdler{c: c, i: id})
		}
		var s Sleeper
		if sl, ok := c.(Sleeper); ok {
			s = sl
		} else {
			e.plain++
		}
		e.sched = append(e.sched, s)
		e.wake = append(e.wake, e.cycle)
		hs[k] = Handle{e: e, idx: i}
	}
	return hs
}

// pollAll re-queries every Sleeper's schedule against the current cycle.
// It runs at every public run entry point, so state changes made between
// runs — a controller assigned, a sampler attached — are picked up
// without requiring the mutator to know about wakes.
func (e *Engine) pollAll() {
	if e.stepped {
		return
	}
	for i, s := range e.sched {
		if s != nil {
			e.setWake(i, s.NextWakeup(e.cycle))
		}
	}
}

// Cycle returns the number of cycles executed so far.
func (e *Engine) Cycle() int64 { return e.cycle }

// Components returns the number of registered components.
func (e *Engine) Components() int { return len(e.components) }

// FastForwarded returns the number of cycles the engine jumped over
// entirely — cycles in which no component was due, so no Tick ran.
// Cycles where only some components ticked count as executed.
func (e *Engine) FastForwarded() int64 { return e.skipped }

// AwakeComponents names the components whose declared next wake is at or
// before the current cycle — the ones that would tick now, i.e. the set
// keeping the clock from jumping. Plain (non-Sleeper) components are
// always awake. Diagnostic: it re-queries every Sleeper, so call it
// between runs, not per cycle.
func (e *Engine) AwakeComponents() []string {
	var names []string
	for i, c := range e.components {
		s := e.sched[i]
		if s == nil || e.stepped || s.NextWakeup(e.cycle) <= e.cycle {
			names = append(names, c.Name())
		}
	}
	return names
}

// allIdle is the termination predicate of RunUntilIdle: every registered
// component that implements Idler reports Idle.
func (e *Engine) allIdle() bool {
	for _, x := range e.idlers {
		if !x.i.Idle() {
			return false
		}
	}
	return true
}

// IdleCount returns how many registered components currently report Idle;
// components that do not implement Idler count as idle. It is a liveness
// gauge for the observability hub, and shares its scan with RunUntilIdle.
func (e *Engine) IdleCount() int {
	n := len(e.components)
	for _, x := range e.idlers {
		if !x.i.Idle() {
			n--
		}
	}
	return n
}

// busyNameCap bounds how many component names a cycle-limit error carries.
const busyNameCap = 8

// busyNames lists the components still reporting busy, for diagnostics.
func (e *Engine) busyNames() []string {
	var names []string
	for _, x := range e.idlers {
		if !x.i.Idle() {
			if len(names) == busyNameCap {
				names = append(names, "...")
				break
			}
			names = append(names, x.c.Name())
		}
	}
	return names
}

func (e *Engine) limitErr(limit int64) error {
	if busy := e.busyNames(); len(busy) > 0 {
		return fmt.Errorf("%w after %d cycles (busy: %s)",
			ErrCycleLimit, limit, strings.Join(busy, ", "))
	}
	return fmt.Errorf("%w after %d cycles", ErrCycleLimit, limit)
}

// stepOnce executes the current cycle: every plain component, and every
// Sleeper whose wake is due. Dueness is evaluated when the iteration
// reaches the component, so a producer ticking earlier in the pass can
// still hand a later consumer same-cycle work via Wake. After a due
// Sleeper ticks, its schedule is re-queried for the next cycle.
func (e *Engine) stepOnce() {
	c := e.cycle
	e.inCycle = true
	for i, comp := range e.components {
		e.pos = i
		s := e.sched[i]
		if s == nil || e.stepped || e.wake[i] <= c {
			comp.Tick(c)
			if s != nil && !e.stepped {
				e.setWake(i, s.NextWakeup(c+1))
			}
		}
	}
	e.inCycle = false
	e.cycle = c + 1
}

// tryJump advances the clock to the earliest pending wake when no
// component is due this cycle, clamped to deadline so limit accounting
// matches a stepped run, and reports whether it moved. Jumps are what
// FastForwarded counts: cycles in which nothing at all ran.
func (e *Engine) tryJump(deadline int64) bool {
	if e.stepped || e.plain > 0 {
		return false
	}
	w := e.nextWakeOf()
	if w <= e.cycle {
		return false
	}
	t := w
	if t > deadline {
		t = deadline
	}
	if t <= e.cycle {
		return false
	}
	e.skipped += t - e.cycle
	e.cycle = t
	return true
}

// Step executes exactly one cycle.
func (e *Engine) Step() {
	e.pollAll()
	e.stepOnce()
}

// Run advances the clock by n cycles, executing due ticks and jumping
// over cycles where nothing is due.
func (e *Engine) Run(n int64) {
	if n <= 0 {
		return
	}
	e.pollAll()
	deadline := e.cycle + n
	for e.cycle < deadline {
		if !e.tryJump(deadline) {
			e.stepOnce()
		}
	}
}

// RunUntil advances until done() is true, checking after every executed
// cycle and after every jump. It returns ErrNonPositiveLimit without
// stepping when limit ≤ 0, and ErrCycleLimit (naming the still-busy
// components) if more than limit cycles elapse before done() holds.
func (e *Engine) RunUntil(done func() bool, limit int64) error {
	if limit <= 0 {
		return fmt.Errorf("%w: %d", ErrNonPositiveLimit, limit)
	}
	e.pollAll()
	start := e.cycle
	for !done() {
		if e.cycle-start >= limit {
			return e.limitErr(limit)
		}
		if !e.tryJump(start + limit) {
			e.stepOnce()
		}
	}
	return nil
}

// RunUntilIdle steps until every registered component that implements Idler
// reports Idle, checking after every cycle. It shares RunUntil's limit
// semantics and the IdleCount idle scan.
func (e *Engine) RunUntilIdle(limit int64) error {
	return e.RunUntil(e.allIdle, limit)
}

// Func adapts a function to the Component interface, for tests and small
// glue components.
type Func struct {
	ID string
	F  func(cycle int64)
}

// Name implements Component.
func (f Func) Name() string { return f.ID }

// Tick implements Component.
func (f Func) Tick(cycle int64) { f.F(cycle) }

// SchedFunc adapts a pair of functions to a scheduling component: F
// ticks, W reports the next wakeup. It is the Sleeper-aware analogue of
// Func for glue components that aggregate other parts' schedules.
type SchedFunc struct {
	ID string
	F  func(cycle int64)
	W  func(now int64) int64
}

// Name implements Component.
func (f SchedFunc) Name() string { return f.ID }

// Tick implements Component.
func (f SchedFunc) Tick(cycle int64) { f.F(cycle) }

// NextWakeup implements Sleeper.
func (f SchedFunc) NextWakeup(now int64) int64 { return f.W(now) }
