package bench

import (
	"fmt"
	"strings"
)

// DiffOptions sets the regression thresholds as fractions (0.05 = 5%).
type DiffOptions struct {
	// CycleThreshold flags a point whose simcycles grew by more than this
	// fraction. 0 selects the 5% default; simcycles are deterministic, so
	// the threshold exists only to absorb intentional small modelling
	// changes.
	CycleThreshold float64
	// AllocThreshold flags a matrix pass whose malloc count grew by more
	// than this fraction. 0 selects the 30% default — deliberately loose,
	// since allocation counts drift with the Go toolchain.
	AllocThreshold float64
}

// Default thresholds (see DiffOptions).
const (
	DefaultCycleThreshold = 0.05
	DefaultAllocThreshold = 0.30
)

// DiffReport is the outcome of comparing a new artifact against an old
// baseline.
type DiffReport struct {
	Area string `json:"area"`
	// Regressions is what makes the diff fail: simcycle growth past the
	// threshold, malloc growth past the alloc threshold, or a point that
	// disappeared from the matrix.
	Regressions []DiffLine `json:"regressions,omitempty"`
	// Improvements and Notes are informational.
	Improvements []DiffLine `json:"improvements,omitempty"`
	Notes        []string   `json:"notes,omitempty"`
}

// DiffLine is one compared quantity.
type DiffLine struct {
	ID     string  `json:"id"`     // point ID, or "jobs=N allocs" for a pass
	Metric string  `json:"metric"` // "simcycles" or "mallocs"
	Old    int64   `json:"old"`
	New    int64   `json:"new"`
	Delta  float64 `json:"delta"` // fractional change, (new-old)/old; 0 when ZeroBase
	// ZeroBase marks a line whose baseline value was zero: the fractional
	// change is undefined (it would render as +Inf% or NaN), so Delta is
	// left 0 and the report states new-vs-zero explicitly.
	ZeroBase bool `json:"zero_base,omitempty"`
}

// HasRegressions reports whether the diff should fail.
func (r *DiffReport) HasRegressions() bool { return len(r.Regressions) > 0 }

// Format renders the report for terminals — one line per finding.
func (r *DiffReport) Format() string {
	var b strings.Builder
	line := func(verdict string, l DiffLine) {
		if l.ZeroBase {
			fmt.Fprintf(&b, "%s %s %s: %d -> %d (zero baseline; %% undefined)\n", verdict, l.ID, l.Metric, l.Old, l.New)
			return
		}
		fmt.Fprintf(&b, "%s %s %s: %d -> %d (%+.1f%%)\n", verdict, l.ID, l.Metric, l.Old, l.New, l.Delta*100)
	}
	for _, l := range r.Regressions {
		line("REGRESSION", l)
	}
	for _, l := range r.Improvements {
		line("improvement", l)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if b.Len() == 0 {
		fmt.Fprintf(&b, "no change: %s matches baseline\n", r.Area)
	}
	return b.String()
}

// Diff compares two artifacts of the same area: per-point simcycles
// against CycleThreshold and per-pass malloc counts (matched by jobs
// value) against AllocThreshold. A point present in old but missing from
// new is a regression — a shrinking matrix must be an explicit baseline
// update, never a silent pass. New points and improvements are noted
// without failing.
func Diff(old, new *Artifact, opt DiffOptions) (*DiffReport, error) {
	if old.Header.Area != new.Header.Area {
		return nil, fmt.Errorf("bench: diff across areas %q vs %q", old.Header.Area, new.Header.Area)
	}
	cycThr := opt.CycleThreshold
	if cycThr == 0 {
		cycThr = DefaultCycleThreshold
	}
	allocThr := opt.AllocThreshold
	if allocThr == 0 {
		allocThr = DefaultAllocThreshold
	}
	if cycThr < 0 || allocThr < 0 {
		return nil, fmt.Errorf("bench: thresholds must be non-negative")
	}

	r := &DiffReport{Area: new.Header.Area}
	newPoints := map[string]PointResult{}
	for _, p := range new.Deterministic.Points {
		newPoints[p.ID] = p
	}
	for _, op := range old.Deterministic.Points {
		np, ok := newPoints[op.ID]
		if !ok {
			r.Regressions = append(r.Regressions, DiffLine{ID: op.ID, Metric: "simcycles", Old: op.SimCycles, New: 0, Delta: -1})
			continue
		}
		delete(newPoints, op.ID)
		if op.SimCycles == 0 {
			// A zero baseline has no defined fractional change; any growth
			// is reported as new-vs-zero instead of +Inf% (and a 0 -> 0
			// point is genuinely unchanged).
			if np.SimCycles != 0 {
				r.Regressions = append(r.Regressions, DiffLine{
					ID: op.ID, Metric: "simcycles", Old: 0, New: np.SimCycles, ZeroBase: true})
			}
			if op.Status != np.Status {
				r.Notes = append(r.Notes, fmt.Sprintf("%s: status %q -> %q", op.ID, op.Status, np.Status))
			}
			continue
		}
		delta := float64(np.SimCycles-op.SimCycles) / float64(op.SimCycles)
		l := DiffLine{ID: op.ID, Metric: "simcycles", Old: op.SimCycles, New: np.SimCycles, Delta: delta}
		switch {
		case delta > cycThr:
			r.Regressions = append(r.Regressions, l)
		case delta < -cycThr:
			r.Improvements = append(r.Improvements, l)
		}
		if op.Status != np.Status {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: status %q -> %q", op.ID, op.Status, np.Status))
		}
	}
	// Iterate new's own order (not the leftover map) so notes are stable.
	for _, np := range new.Deterministic.Points {
		if _, leftover := newPoints[np.ID]; leftover {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: new point (simcycles %d)", np.ID, np.SimCycles))
		}
	}

	// Passes pair up by their jobs count.
	oldRuns := map[int]RunMeasure{}
	for _, m := range old.Measured.Runs {
		oldRuns[m.Jobs] = m
	}
	for _, nm := range new.Measured.Runs {
		om, ok := oldRuns[nm.Jobs]
		if !ok {
			continue
		}
		id := fmt.Sprintf("jobs=%d allocs", nm.Jobs)
		if om.Mallocs == 0 {
			// Same zero-baseline rule as simcycles: explicit new-vs-zero,
			// never a NaN or +Inf percentage. Allocations from a baseline
			// that measured none always exceed any fractional threshold.
			if nm.Mallocs != 0 {
				r.Regressions = append(r.Regressions, DiffLine{
					ID: id, Metric: "mallocs",
					Old: 0, New: int64(nm.Mallocs), ZeroBase: true})
			}
			continue
		}
		delta := (float64(nm.Mallocs) - float64(om.Mallocs)) / float64(om.Mallocs)
		l := DiffLine{ID: id, Metric: "mallocs",
			Old: int64(om.Mallocs), New: int64(nm.Mallocs), Delta: delta}
		switch {
		case delta > allocThr:
			r.Regressions = append(r.Regressions, l)
		case delta < -allocThr:
			r.Improvements = append(r.Improvements, l)
		}
	}
	return r, nil
}
