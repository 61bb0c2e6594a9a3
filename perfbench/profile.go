package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the cpu.<name> self-time shares a traced run reports:
// the repository's modules, then the standard-library and runtime
// buckets the roadmap items target.
var cpuModules = []string{
	"pagetable", "ksym", "hostsim", "mem", "core", "hypervisor", "guestos",
	"kvm", "virtio", "storage", "blockdev", "fsimage", "netsim", "vclock",
	"obs", "engine", "lifecycle", "replay",
	"hash_fnv", "encoding_json", "runtime_memclr", "runtime_gc",
}

// foldProfile turns a gzipped pprof CPU profile into self-time shares.
// A sample counts towards the package of its leaf frame: a repository
// module under vmsh/internal, hash/fnv or encoding/json, or
// runtime_memclr for clearing fresh memory. runtime_gc is different: it
// is the share of samples with a garbage-collector frame anywhere on
// the stack (mark workers, assists, sweeping).
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range cpuModules {
		out[m] = 0
	}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := float64(s.values[0])
		total += n
		if bucket := leafBucket(p.funcName(s.locs[0])); bucket != "" {
			out[bucket] += n
		}
		for _, loc := range s.locs {
			if isGCFrame(p.funcName(loc)) {
				out["runtime_gc"] += n
				break
			}
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out, nil
}

// leafBucket maps a function symbol to its cpu.<bucket>, or "".
func leafBucket(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if fn == "runtime.memclrNoHeapPointers" {
		return "runtime_memclr"
	}
	switch pkg {
	case "hash/fnv":
		return "hash_fnv"
	case "encoding/json":
		return "encoding_json"
	}
	if mod, ok := strings.CutPrefix(pkg, "vmsh/internal/"); ok {
		mod, _, _ = strings.Cut(mod, "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
	}
	return ""
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// The subset of profile.proto (github.com/google/pprof) read here.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples []pprofSample
	locFunc map[uint64]uint64 // location id -> leaf (innermost) function id
	funcStr map[uint64]int64  // function id -> name string index
	strs    []string
}

func (p *pprofProfile) funcName(loc uint64) string {
	fid, ok := p.locFunc[loc]
	if !ok {
		return ""
	}
	i := p.funcStr[fid]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

var errProto = errors.New("malformed profile")

// protoFields calls fn for each field of a protobuf message. For
// varint fields v holds the value, for length-delimited ones b the
// bytes.
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedUint appends a repeated integer field, packed or not.
func repeatedUint(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFunc: map[uint64]uint64{}, funcStr: map[uint64]int64{}}
	err := protoFields(raw, func(field int, _ uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = repeatedUint(s.locs, v, b)
				case 2:
					var vals []uint64
					vals, err = repeatedUint(nil, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first entry is the innermost inlined function
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if len(funcs) > 0 {
				p.locFunc[id] = funcs[0]
			}
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcStr[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}
