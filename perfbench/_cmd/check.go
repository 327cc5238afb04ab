package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cedar/internal/bench"
)

// defaultSeed is the seed references for seed-dependent outputs (the
// seeded fault plan's points) are recorded at.
const defaultSeed = 1

// pointRef is the recorded output of one point or one request key.
type pointRef struct {
	SimCycles int64  `json:"simcycles"`
	Flops     int64  `json:"flops"`
	SHA256    string `json:"sha256"`
}

// refFile holds a workload's output references. Points are outputs no
// seed affects (healthy points, serve-mix keys); SeedPoints hold only at
// Seed.
type refFile struct {
	Workload   string              `json:"workload"`
	Seed       uint64              `json:"seed"`
	Points     map[string]pointRef `json:"points"`
	SeedPoints map[string]pointRef `json:"seed_points,omitempty"`
}

func refPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

func loadRefs(dir, workload string) (*refFile, error) {
	b, err := os.ReadFile(refPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	var r refFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("references %s: %w", refPath(dir, workload), err)
	}
	return &r, nil
}

func (r *refFile) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(refPath(dir, r.Workload), append(b, '\n'), 0o644)
}

// checker verifies outputs: against references where they exist, and
// against seed-independent invariants always. With record set it fills
// the references instead of comparing.
type checker struct {
	refs   *refFile
	seed   uint64
	record bool
	// seen pins the first output observed per id, so every later output
	// of the same id in this run must be byte-identical to it.
	seen     map[string]string
	problems []string
}

func newChecker(refs *refFile, seed uint64, record bool) *checker {
	return &checker{refs: refs, seed: seed, record: record, seen: map[string]string{}}
}

// fail records a problem; the first few are kept for the report.
func (c *checker) fail(format string, args ...any) bool {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	return false
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outcomeDigest hashes an outcome's deterministic JSON encoding.
func outcomeDigest(o bench.Outcome) string {
	b, err := json.Marshal(o)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digest(b)
}

// outcome checks one simulated point. seeded marks outputs that depend on
// the seed (faulted points), which have references only at the seed they
// were recorded at. flops is the kernel's analytic flop count, 0 where
// none is exported.
func (c *checker) outcome(id string, seeded bool, o bench.Outcome, flops int64) bool {
	ok := true
	if o.Status != "ok" {
		ok = c.fail("%s: status %q, want ok", id, o.Status)
	}
	if flops > 0 && o.Flops != flops {
		ok = c.fail("%s: %d flops, analytic count is %d", id, o.Flops, flops)
	}
	if !attributionConserved(o.Attribution) {
		ok = c.fail("%s: attribution busy+stall+idle != elapsed", id)
	}
	return c.output(id, seeded, pointRef{SimCycles: o.SimCycles, Flops: o.Flops, SHA256: outcomeDigest(o)}) && ok
}

// output compares one output against its reference and against every
// earlier output of the same id in this run.
func (c *checker) output(id string, seeded bool, got pointRef) bool {
	if prev, ok := c.seen[id]; ok && prev != got.SHA256 {
		return c.fail("%s: output differs from an earlier output of the same point", id)
	}
	c.seen[id] = got.SHA256
	if c.record {
		if seeded {
			c.refs.SeedPoints[id] = got
		} else {
			c.refs.Points[id] = got
		}
		return true
	}
	var want pointRef
	var have bool
	switch {
	case !seeded:
		want, have = c.refs.Points[id]
		if !have {
			return c.fail("%s: no reference recorded", id)
		}
	case c.seed == c.refs.Seed:
		want, have = c.refs.SeedPoints[id]
		if !have {
			return c.fail("%s: no reference recorded at seed %d", id, c.seed)
		}
	default:
		return true // seed-dependent output with no reference: invariants only
	}
	if got != want {
		return c.fail("%s: output %d cycles %d flops %.12s…, reference %d cycles %d flops %.12s…",
			id, got.SimCycles, got.Flops, got.SHA256, want.SimCycles, want.Flops, want.SHA256)
	}
	return true
}

// newRefs starts an empty reference file for recording.
func newRefs(workload string) *refFile {
	return &refFile{Workload: workload, Seed: defaultSeed, Points: map[string]pointRef{}, SeedPoints: map[string]pointRef{}}
}
