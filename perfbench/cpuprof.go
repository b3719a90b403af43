package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers a CPU profile sample is attributed to: the
// engine's packages, the Go runtime's GC and scheduler, and other.
var cpuLayers = []string{
	"plan", "core", "ctrl", "sched", "shuffle", "sketch", "chunk", "bag",
	"transport", "storage", "stream", "obs", "runtime", "other",
}

// internalLayers maps every package under repro/internal to its layer.
// Packages that are not engine layers (applications, generators and the
// paper simulators) map to other explicitly, so a new package has to be
// placed here before the benchmark's tests pass.
var internalLayers = map[string]string{
	"plan": "plan", "core": "core", "ctrl": "ctrl", "sched": "sched",
	"shuffle": "shuffle", "sketch": "sketch", "chunk": "chunk", "bag": "bag",
	"transport": "transport", "storage": "storage", "stream": "stream", "obs": "obs",
	"apps": "other", "workload": "other", "baseline": "other",
	"experiments": "other", "sim": "other",
}

// packageOf returns the import path of a Go symbol name such as
// "repro/internal/bag.(*Store).Sample.func1" or
// "repro/hurricane.ForEach[go.shape.uint64]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfPackage maps an import path to its layer: packages under
// repro/internal by internalLayers, everything else to other.
func layerOfPackage(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return "other"
	}
	name, _, _ := strings.Cut(rest, "/")
	if l, ok := internalLayers[name]; ok {
		return l
	}
	return "other"
}

// gcOrSched reports whether a runtime function is garbage collection or
// goroutine scheduling work.
func gcOrSched(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.greyobject", "runtime.sweepone", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goschedImpl",
		"runtime.gosched_m", "runtime.mcall", "runtime.mstart", "runtime.sysmon",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.netpoll",
		"runtime.entersyscall", "runtime.exitsyscall",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOfStack attributes one sample, given its frames leaf first: to
// the layer of the leaf-most engine frame, or to runtime when GC or
// scheduler work comes first. Standard-library frames in between (a
// syscall under the TCP transport, a copy under the chunk codec) count
// for the engine frame that called them. Samples with no engine frame go
// to runtime when the runtime ran them and to other otherwise.
func layerOfStack(frames []string) string {
	sawRuntime := false
	for _, fn := range frames {
		if gcOrSched(fn) {
			return "runtime"
		}
		pkg := packageOf(fn)
		if strings.HasPrefix(pkg, "repro/") || pkg == "main" {
			return layerOfPackage(pkg)
		}
		if pkg == "runtime" {
			sawRuntime = true
		}
	}
	if sawRuntime {
		return "runtime"
	}
	return "other"
}

// cpuByLayer decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) and returns the CPU nanoseconds of its samples
// per layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range p.samples {
		var frames []string
		for _, locID := range s.locs {
			for _, fnID := range p.locations[locID] {
				frames = append(frames, p.funcName(fnID))
			}
		}
		out[layerOfStack(frames)] += s.value
	}
	return out, nil
}

// ---- a minimal decoder for the profile.proto fields used above ----

type profSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strs      []string
}

func (p *profile) funcName(id uint64) string {
	if i := p.functions[id]; i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for every field of one message. v holds varint
// and fixed-width values; b holds length-delimited payloads.
func protoFields(msg []byte, fn func(field int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed (wire 2) or not.
func varints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := protoFields(raw, func(field, wire int, v uint64, b []byte) error {
		var err error
		switch field {
		case 2: // sample
			var s profSample
			var vals []uint64
			err = protoFields(b, func(f, w int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = varints(s.locs, w, v, b)
				case 2:
					vals, err = varints(vals, w, v, b)
				}
				return err
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
		case 5: // function
			var id uint64
			name := int64(-1)
			err = protoFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
