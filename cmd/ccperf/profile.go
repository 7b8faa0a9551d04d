package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// layers are the buckets a traced run splits its run time into, in report
// order. Each ccnic/internal package is its own layer (sim/shard is
// "shard"); packages outside this list fold into "other", and samples with
// no ccnic/internal frame at all into "runtime".
var layers = []string{
	"sim", "coherence", "interconn", "ring", "device", "bufpool", "loopback", "pcie",
	"kvstore", "traffic", "shard", "fabric", "cluster", "other", "runtime",
}

// layerOf attributes a stack, leaf first, to the innermost ccnic/internal
// frame's layer.
func layerOf(stack []string) string {
	const prefix = "ccnic/internal/"
	for _, fn := range stack {
		pkg, ok := strings.CutPrefix(funcPackage(fn), prefix)
		if !ok {
			continue
		}
		if pkg == "sim/shard" {
			return "shard"
		}
		if pkg, _, _ = strings.Cut(pkg, "/"); slices.Contains(layers, pkg) {
			return pkg
		}
		return "other"
	}
	return "runtime"
}

// funcPackage returns the import path of a symbol name such as
// "ccnic/internal/sim.(*Proc).park".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// spanOf names the benchmark span a stack was sampled in. Stacks with no
// benchmark frame belong to simulation coroutines, shard workers or the
// runtime's background work, which outside the run span only the garbage
// collection between points produces; they count as "run".
func spanOf(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case "main.timedSetup":
			return "setup"
		case "main.timedCheck":
			return "check"
		case "main.collectGarbage":
			return "gc"
		case "main.calibrate":
			return "calibrate"
		}
	}
	return "run"
}

// runShares splits the run-span samples of a CPU profile by layer. It
// returns each layer's share and the number of run samples.
func runShares(samples []profSample) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		if spanOf(s.stack) != "run" {
			continue
		}
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	for l, n := range counts {
		shares[l] = float64(n) / float64(total)
	}
	return shares, total
}

// profSample is one CPU profile sample: function names leaf first, with
// inlined calls expanded, and its sample count.
type profSample struct {
	stack []string
	count int64
}

// parseProfile decodes the gzipped pprof protocol buffer that
// runtime/pprof.StartCPUProfile writes, keeping only what layer attribution
// needs: each sample's stack of function names and its count.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	// Field numbers from perftools.profiles.Profile (profile.proto).
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s rawSample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id
					ids, err := varints(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: [samples, cpu nanoseconds]
					vals, err := varints(v, b)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 { // function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// fields walks the top-level fields of a protocol buffer message, calling fn
// with each field number and either its varint value or its bytes.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values: one varint, or a packed
// run of them.
func varints(v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		packed = packed[n:]
	}
	return out, nil
}
