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

// profile is the part of a gzipped pprof protobuf (as written by
// runtime/pprof) that layer attribution needs. The decoder below reads only
// the fields named here and skips the rest, so it needs no dependency.
type profile struct {
	types   []string // sample type names, e.g. "cpu", "alloc_space"
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]string   // function id -> fully qualified name
}

type profSample struct {
	locs   []uint64 // location ids, leaf first
	values []int64  // one per sample type
}

// Field numbers from pprof's profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var typeIdx []uint64
	funcNames := map[uint64]uint64{} // function id -> string index
	var strs []string
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			return walkFields(b, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case fProfileSample:
			var s profSample
			err := walkFields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case fSampleLocation:
					return appendVarints(&s.locs, v, pb)
				case fSampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, pb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(lb, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := walkFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for id, i := range funcNames {
		p.funcs[id] = str(i)
	}
	return p, nil
}

// total sums one sample type over every sample.
func (p *profile) total(sampleType string) (int64, error) {
	idx, err := p.typeIndex(sampleType)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, s := range p.samples {
		if idx < len(s.values) {
			sum += s.values[idx]
		}
	}
	return sum, nil
}

func (p *profile) typeIndex(sampleType string) (int, error) {
	for i, t := range p.types {
		if t == sampleType {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", sampleType, p.types)
}

// stack returns a sample's function names, innermost (leaf) first.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			out = append(out, p.funcs[fn])
		}
	}
	return out
}

// cpuSplit is a CPU profile's time attributed to layers by the package of
// each sample's innermost frame (inlined frames keep their own package).
// The profile supplies only the shares: at the raised sampling rate the
// kernel delivers fewer signals than asked for, so the absolute CPU time
// comes from getrusage over the same interval (CPUNs), as do the Insts it
// is divided by.
type cpuSplit struct {
	Samples int
	TotalNs int64            // profile weight of all samples
	LayerNs map[string]int64 // "emu", "pipeline", ..., "go.runtime", "other"
	GCNs    int64            // samples with a garbage-collector frame anywhere on the stack
	CPUNs   int64            // process CPU time (user+system) over the profiled interval
	Insts   uint64           // instructions simulated in it
}

func splitCPU(p *profile) (cpuSplit, error) {
	idx, err := p.typeIndex("cpu")
	if err != nil {
		return cpuSplit{}, err
	}
	out := cpuSplit{LayerNs: map[string]int64{}}
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		ns := s.values[idx]
		stack := p.stack(s)
		leaf := ""
		if len(stack) > 0 {
			leaf = stack[0]
		}
		out.Samples++
		out.TotalNs += ns
		out.LayerNs[layerOf(leaf)] += ns
		for _, fn := range stack {
			if isGCFrame(fn) {
				out.GCNs += ns
				break
			}
		}
	}
	return out, nil
}

// add accumulates another split (profiles of successive traced rounds).
func (c *cpuSplit) add(o cpuSplit) {
	if c.LayerNs == nil {
		c.LayerNs = map[string]int64{}
	}
	c.Samples += o.Samples
	c.TotalNs += o.TotalNs
	c.GCNs += o.GCNs
	c.CPUNs += o.CPUNs
	c.Insts += o.Insts
	for k, v := range o.LayerNs {
		c.LayerNs[k] += v
	}
}

// layerOf maps a function name such as "ctcp/internal/pipeline.(*Pipeline).cycle"
// to its layer: the package name under ctcp/internal, "go.runtime" for the Go
// runtime, and "other" for everything else (stdlib, main packages).
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may contain paths
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "ctcp/internal/"):
		return strings.TrimPrefix(pkg, "ctcp/internal/")
	case pkg == "runtime":
		return "go.runtime"
	}
	return "other"
}

// isGCFrame reports whether fn is garbage-collector work: mark workers,
// mutator assists, sweeping, scavenging and the stop-the-world phases.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime._GC"
}

// layerNsPerInst is a layer's share of the profile applied to the measured
// CPU time, per simulated instruction.
func (c cpuSplit) layerNsPerInst(layer string) float64 {
	return ratio(float64(c.LayerNs[layer]), float64(c.TotalNs)) * ratio(float64(c.CPUNs), float64(c.Insts))
}

// cpuMetrics renders a split as per-instruction layer costs, with the GC
// share of CPU measured alongside.
func cpuMetrics(c cpuSplit, gcFrac float64, gcBase string) []metric {
	base := fmt.Sprintf("share of %d samples x %.3f cpu-s over %d insts", c.Samples, float64(c.CPUNs)/1e9, c.Insts)
	var out []metric
	for _, m := range perLayer {
		layer := strings.TrimSuffix(m.Name, ".cpu_ns_per_inst")
		switch m.Name {
		case "go.runtime_cpu_ns_per_inst":
			layer = "go.runtime"
		case "go.gc_cpu_frac":
			out = append(out, metric{Name: m.Name, Value: gcFrac, Unit: m.Unit, Base: gcBase})
			continue
		}
		out = append(out, metric{Name: m.Name, Value: c.layerNsPerInst(layer), Unit: m.Unit, Base: base})
	}
	out = append(out, metric{Name: "cpu_ns_per_inst", Value: ratio(float64(c.CPUNs), float64(c.Insts)), Unit: "ns",
		Base: fmt.Sprintf("%.3f cpu-s over %d insts", float64(c.CPUNs)/1e9, c.Insts)})
	for _, layer := range []string{"snap", "sample", "experiment", "workload", "other"} {
		if c.LayerNs[layer] > 0 {
			out = append(out, metric{Name: layer + ".cpu_ns_per_inst", Value: c.layerNsPerInst(layer), Unit: "ns", Base: base})
		}
	}
	return out
}

// walkFields calls fn for each field of a protobuf message: v carries a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			var fixed [8]byte
			copy(fixed[:], msg[:size])
			v = binary.LittleEndian.Uint64(fixed[:])
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that may arrive unpacked
// (one value in v) or packed (a payload of varints in b).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
