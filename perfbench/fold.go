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

// This file folds a CPU profile into per-layer self-time shares: every
// sample is charged to the package of its leaf frame (the innermost,
// inlined-into-nothing function that was on CPU), and the package is
// mapped to a layer by foldPackage. The profile is the gzipped protobuf
// runtime/pprof writes; the decoder below reads only the fields the fold
// needs, so the benchmark has no dependency beyond the standard library.

// layerOther collects every frame no declared layer claims.
const layerOther = "self.other"

// foldPackage maps a fully qualified function name, as the profile
// records it, to the layer it is charged to:
//
//   - vivo/internal/<module>[/...] → self.<module>
//   - container/heap → self.container_heap
//   - the runtime's collector, allocator and write-barrier frames →
//     self.gc
//   - anything else → self.other
func foldPackage(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "vivo/internal/"):
		mod := strings.TrimPrefix(pkg, "vivo/internal/")
		if i := strings.IndexByte(mod, '/'); i >= 0 {
			mod = mod[:i]
		}
		return "self." + mod
	case pkg == "container/heap":
		return "self.container_heap"
	case pkg == "runtime" && isGCFrame(strings.TrimPrefix(fn, "runtime.")):
		return "self.gc"
	}
	return layerOther
}

// funcPackage returns the import path of a qualified function name:
// "vivo/internal/sim.(*Kernel).Step" → "vivo/internal/sim",
// "runtime.mallocgc" → "runtime".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcFrameMarks are substrings of the runtime functions that do
// allocation, marking, sweeping, scavenging or write-barrier work.
var gcFrameMarks = []string{
	"gc", "GC", "malloc", "newobject", "newarray", "makeslice", "growslice",
	"makemap", "scanobject", "scanblock", "scanstack", "scanframe", "greyobject",
	"markroot", "markBits", "findObject", "heapBits", "heapSetType", "typePointers",
	"sweep", "mspan", "mcache", "mcentral", "mheap", "pageAlloc", "scavenge",
	"wbBuf", "WriteBarrier", "bulkBarrier", "nextFree", "memclrNoHeapPointers",
	"spanOf", "deductAssist",
}

func isGCFrame(name string) bool {
	for _, m := range gcFrameMarks {
		if strings.Contains(name, m) {
			return true
		}
	}
	return false
}

// foldProfile decodes a gzipped CPU profile and returns each layer's
// share of the sampled CPU time; the shares sum to 1 when any sample
// was taken.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fnName := map[uint64]string{}
	for id, nameIdx := range p.functions {
		if nameIdx < uint64(len(p.strings)) {
			fnName[id] = p.strings[nameIdx]
		}
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		layer := layerOther
		if fns := p.locations[s.locs[0]]; len(fns) > 0 {
			layer = foldPackage(fnName[fns[0]])
		}
		byLayer[layer] += v
		total += v
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer, nil
}

// profile is the subset of profile.proto the fold reads.
type profile struct {
	samples []sample
	// locations maps a location id to its function ids, leaf first
	// (a location's lines list inlined callees before their caller).
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]uint64
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocationID:
					ids, err := varints(wire, v, data)
					s.locs = append(s.locs, ids...)
					return err
				case fSampleValue:
					vals, err := varints(wire, v, data)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf")

// eachField walks one message's fields, handing varint fields their value
// and length-delimited fields their bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
