package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the gzip-compressed protobuf CPU profiles runtime/pprof
// writes, far enough to fold their samples by package. The module has no
// dependencies, so it decodes the handful of profile.proto fields it
// needs by hand:
//
//	Profile:  1 sample_type, 2 sample, 4 location, 5 function,
//	          6 string_table, 12 period
//	ValueType: 1 type, 2 unit            (string-table indices)
//	Sample:   1 location_id, 2 value      (packed or not)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name
//
// A location lists its inlined frames leaf first, and a sample lists its
// locations leaf first, so a sample's stack flattens to function names
// from the leaf out.

// profSample is one stack (function names, leaf first) and its CPU time.
type profSample struct {
	stack []string
	ns    int64
}

// readProfile decodes a gzipped pprof CPU profile into its samples.
func readProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs      []string
		types     [][2]uint64 // (type, unit) string indices per sample value
		rawSample [][]byte
		locLines  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName  = map[uint64]uint64{}   // function id → string index
	)
	err = eachField(raw, func(f uint64, wt int, v uint64, b []byte) error {
		switch {
		case f == 1 && wt == 2:
			var vt [2]uint64
			err := eachField(b, func(f uint64, wt int, v uint64, _ []byte) error {
				if wt == 0 && (f == 1 || f == 2) {
					vt[f-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case f == 2 && wt == 2:
			rawSample = append(rawSample, b)
		case f == 4 && wt == 2:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f uint64, wt int, v uint64, lb []byte) error {
				switch {
				case f == 1 && wt == 0:
					id = v
				case f == 4 && wt == 2:
					return eachField(lb, func(f uint64, wt int, v uint64, _ []byte) error {
						if f == 1 && wt == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case f == 5 && wt == 2:
			var id, name uint64
			err := eachField(b, func(f uint64, wt int, v uint64, _ []byte) error {
				if wt == 0 && f == 1 {
					id = v
				} else if wt == 0 && f == 2 {
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case f == 6 && wt == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry (samples, count) and (cpu, nanoseconds); take
	// the nanoseconds value.
	valueIdx := -1
	for i, vt := range types {
		if str(vt[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample value (not a CPU profile?)")
	}

	out := make([]profSample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(b, func(f uint64, wt int, v uint64, pb []byte) error {
			switch {
			case f == 1 && wt == 0:
				locs = append(locs, v)
			case f == 1 && wt == 2:
				return eachVarint(pb, func(v uint64) { locs = append(locs, v) })
			case f == 2 && wt == 0:
				vals = append(vals, int64(v))
			case f == 2 && wt == 2:
				return eachVarint(pb, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= len(vals) {
			return nil, errors.New("profile: sample has too few values")
		}
		s := profSample{ns: vals[valueIdx]}
		for _, l := range locs {
			for _, fn := range locLines[l] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value (wire type 0) or payload (2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field uint64, wireType int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wt := key>>3, int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint payload.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint, returning the value and the bytes
// consumed (0 on truncation or overflow).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "cedar/internal/"

// layerOf assigns a stack to a host layer. A sample whose leaf frame is
// in package runtime (allocation, GC, scheduling, map and copy work,
// whoever called it) belongs to the Go runtime. Otherwise the leaf-most
// frame inside cedar/internal/<module> owns it, so standard-library work
// a module calls (JSON encoding in serve, hashing and fsync in store)
// counts against that module. Stacks with no module frame go to the
// benchmark program (package main, bucket "perfbench") or "other" (net/http plumbing and the
// rest).
func layerOf(stack []string, known map[string]bool) string {
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			if known[mod] {
				return mod
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "perfbench"
		}
	}
	return "other"
}

// foldProfile sums sample CPU time per host layer; every name in layers
// appears in the result.
func foldProfile(samples []profSample, layers []string) map[string]int64 {
	known := make(map[string]bool, len(layers))
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		known[l] = true
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.stack, known)] += s.ns
	}
	return out
}
