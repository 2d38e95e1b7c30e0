package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A frame is one function on a profiled stack.
type frame struct {
	fn   string // fully qualified, e.g. elastichpc/internal/core.(*Scheduler).kick
	file string
}

// A stackSample is one profile sample: its call stack, innermost frame
// first, and its value of one sample type.
type stackSample struct {
	stack []frame
	value int64
}

const repoPrefix = "elastichpc/internal/"

// shardLayer is the part of the sim layer that runs the sharded path:
// frames in internal/sim/shard.go or merge.go. It is reported on its own
// and also counted in sim.
const shardLayer = "sim_shard"

// charge names the layer a stack is charged to: the package of its
// innermost frame in elastichpc/internal/<pkg>, so standard-library and
// runtime frames count toward their repo caller. A stack with no repo
// frame is charged to "runtime". shard reports whether the charged frame
// is in the sim layer's sharded path. The profiler's own work, any stack
// through runtime/pprof, is charged to no layer ("").
func charge(stack []frame) (layer string, shard bool) {
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime/pprof.") {
			return "", false
		}
	}
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f.fn, repoPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		base := path.Base(f.file)
		return rest, rest == "sim" && (base == "shard.go" || base == "merge.go")
	}
	return "runtime", false
}

// fold sums sample values per charged layer. Samples of the sharded path
// count both in "sim" and in shardLayer.
func fold(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		layer, shard := charge(s.stack)
		if layer == "" {
			continue
		}
		out[layer] += s.value
		if shard {
			out[shardLayer] += s.value
		}
	}
	return out
}

// readProfile decodes a gzipped pprof profile (the protocol buffer that
// runtime/pprof writes) and returns its samples with their values of the
// sample type named typ, such as "cpu" or "alloc_space".
func readProfile(data []byte, typ string) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs    []string
		types   []uint64 // string index of each sample type's name
		samples []rawSample
		locs    = map[uint64][]uint64{}  // location → function ids, innermost first
		funcs   = map[uint64][2]uint64{} // function → name and file string indexes
	)
	err = fields(raw, func(num, wire int, v uint64, sub []byte) error {
		var err error
		switch num {
		case 1: // sample_type
			err = fields(sub, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err = fields(sub, func(num, wire int, v uint64, sub []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, wire, v, sub)
				case 2:
					s.vals, err = repeated(s.vals, wire, v, sub)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = fields(sub, func(num, _ int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(sub, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
		case 5: // function
			var id uint64
			var nf [2]uint64
			err = fields(sub, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					nf[0] = v
				case 4:
					nf[1] = v
				}
				return nil
			})
			funcs[id] = nf
		case 6: // string_table
			if wire != 2 {
				return errors.New("string table entry is not a string")
			}
			strs = append(strs, string(sub))
		}
		return err
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
	col := -1
	for i, t := range types {
		if str(t) == typ {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no %q samples", typ)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.vals) {
			return nil, fmt.Errorf("sample has %d values, want %d", len(s.vals), len(types))
		}
		var stack []frame
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				nf := funcs[fid]
				stack = append(stack, frame{fn: str(nf[0]), file: str(nf[1])})
			}
		}
		out = append(out, stackSample{stack: stack, value: int64(s.vals[col])})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// fields calls fn for each field of a protocol buffer message: its number,
// wire type, and either its integer value or its length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(int(key>>3), int(key&7), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends the values of a repeated integer field, which the
// encoder may write packed (one length-delimited run) or one at a time.
func repeated(dst []uint64, wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, sub = append(dst, x), sub[n:]
	}
	return dst, nil
}
