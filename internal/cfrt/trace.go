package cfrt

import (
	"fmt"

	"cedar/internal/perfmon"
)

// Event kinds the runtime posts to an attached tracer — the paper's
// software event tracing ("It is also possible to post events to the
// performance hardware from programs executing on Cedar").
const (
	// EvPhaseEnter: a CE entered phase Value.
	EvPhaseEnter uint16 = iota + 1
	// EvClaim: a CE claimed iteration Value.
	EvClaim
	// EvBarrierArrive: a CE arrived at the phase-Value barrier.
	EvBarrierArrive
	// EvBarrierPass: a CE passed the phase-Value barrier.
	EvBarrierPass
	// EvCDStart: a cluster master broadcast a CDOALL of Value iterations.
	EvCDStart
	// EvCDJoin: a CE completed a cluster join.
	EvCDJoin
)

// EventName renders a runtime event kind.
func EventName(kind uint16) string {
	switch kind {
	case EvPhaseEnter:
		return "phase-enter"
	case EvClaim:
		return "claim"
	case EvBarrierArrive:
		return "barrier-arrive"
	case EvBarrierPass:
		return "barrier-pass"
	case EvCDStart:
		return "cdoall-start"
	case EvCDJoin:
		return "cdoall-join"
	}
	return "unknown"
}

// SetTracer attaches a perfmon tracer; nil detaches. Events are posted
// with the participant's CE id and the cycle at which the triggering
// instruction completed.
func (r *Runtime) SetTracer(tr *perfmon.Tracer) { r.tracer = tr }

// post records a runtime event if a tracer is attached, and feeds the
// observability hub's counters and phase spans.
func (r *Runtime) post(ci int, cycle int64, kind uint16, value int64) {
	r.observe(cycle, kind, value)
	if r.tracer == nil {
		return
	}
	r.tracer.Post(perfmon.Event{
		Cycle: cycle,
		Kind:  kind,
		CE:    int32(r.ces[ci].ID),
		Value: value,
	})
}

// observe folds a runtime event into the scope hub: every kind bumps a
// counter, the first phase entry opens the phase span, and the barrier
// pass (which fires exactly once per phase, on the last arrival) closes
// it on the "cfrt/phases" track.
func (r *Runtime) observe(cycle int64, kind uint16, value int64) {
	if r.obs == nil {
		return
	}
	switch kind {
	case EvPhaseEnter:
		r.nPhaseEnters++
		if k := int(value); r.phaseStart[k] < 0 {
			r.phaseStart[k] = cycle
		}
	case EvClaim:
		r.nClaims++
	case EvBarrierArrive:
		r.nBarrierArrivals++
	case EvBarrierPass:
		k := int(value)
		start := r.phaseStart[k]
		if start < 0 {
			start = cycle
		}
		r.obs.Span("cfrt/phases", r.phaseName(k), start, cycle)
	case EvCDStart:
		r.nCDStarts++
	case EvCDJoin:
		r.nCDJoins++
	}
}

// phaseName labels a phase span by index and kind.
func (r *Runtime) phaseName(k int) string {
	switch r.ph[k].(type) {
	case Serial:
		return fmt.Sprintf("phase%d-serial", k)
	case XDoall:
		return fmt.Sprintf("phase%d-xdoall", k)
	case SDoall:
		return fmt.Sprintf("phase%d-sdoall", k)
	}
	return fmt.Sprintf("phase%d", k)
}
