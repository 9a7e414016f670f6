// Package layers attributes a CPU profile to the simulator's layers. It
// decodes the gzip-compressed profile.proto that runtime/pprof writes —
// only the fields attribution needs, with the standard library alone —
// and assigns each sample to the layer of its innermost
// cloudmcp/internal/* frame. Samples with no such frame go to "http"
// (net/http and the network poller), "gc" (the collector's background
// workers) or "other".
package layers

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Names lists every layer a share can be attributed to, in report order.
var Names = []string{
	"sim", "rng", "faults", "bw", "hostsim", "mgmtdb", "mgmt", "plane",
	"clouddir", "inventory", "policy", "reconcile", "workload", "trace",
	"sweep", "core", "api", "http", "gc", "other",
}

// packageLayer maps each internal package to its layer; packages that
// serve one layer are folded into it.
var packageLayer = map[string]string{
	"sim": "sim", "rng": "rng", "faults": "faults",
	"bw": "bw", "netsim": "bw", "storage": "bw",
	"hostsim": "hostsim", "mgmtdb": "mgmtdb",
	"mgmt": "mgmt", "ops": "mgmt",
	"plane": "plane", "clouddir": "clouddir", "inventory": "inventory",
	"policy": "policy", "workload": "workload",
	"reconcile": "reconcile", "drs": "reconcile", "ha": "reconcile",
	"trace": "trace", "analysis": "trace", "metrics": "trace", "report": "trace", "stats": "trace",
	"sweep": "sweep", "core": "core", "api": "api",
}

const internalPrefix = "cloudmcp/internal/"

// Sample is one profile sample: its call stack as function names, the
// innermost (leaf) frame first with inlined frames expanded, and its
// weight (CPU nanoseconds for a CPU profile).
type Sample struct {
	Stack  []string
	Weight int64
}

// Parse decodes a profile.proto, gzip-compressed or not, into samples.
// The weight is the profile's last sample value.
func Parse(data []byte) ([]Sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
		data = raw
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id → string index
		locFuncs  = map[uint64][]uint64{}
		rawSample []struct {
			locs   []uint64
			values []int64
		}
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var values []int64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { values = append(values, int64(x)) })
				}
				return nil
			})
			rawSample = append(rawSample, struct {
				locs   []uint64
				values []int64
			}{locs, values})
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Sample, 0, len(rawSample))
	for _, rs := range rawSample {
		if len(rs.values) == 0 {
			return nil, errors.New("layers: sample without values")
		}
		s := Sample{Weight: rs.values[len(rs.values)-1]}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("layers: function %d names string %d of %d", fn, idx, len(strs))
				}
				s.Stack = append(s.Stack, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the protobuf fields of msg, calling fn with each field's
// number and wire type and either its varint value or its bytes.
func fields(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("layers: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("layers: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("layers: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("layers: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("layers: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("layers: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("layers: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// Of returns the layer a stack (innermost frame first) is attributed to.
func Of(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if l, ok := packageLayer[pkg]; ok {
				return l
			}
			return "other"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), fn == "runtime.bgsweep", fn == "runtime.bgscavenge":
			return "gc"
		case strings.HasPrefix(fn, "net/"), strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "internal/poll."):
			return "http"
		}
	}
	return "other"
}

// Shares returns each layer's share of the samples' total weight; every
// name in Names is present and the shares sum to 1 (all zero for an
// empty profile).
func Shares(samples []Sample) map[string]float64 {
	out := make(map[string]float64, len(Names))
	for _, n := range Names {
		out[n] = 0
	}
	var total float64
	for _, s := range samples {
		out[Of(s.Stack)] += float64(s.Weight)
		total += float64(s.Weight)
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}
