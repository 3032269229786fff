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

// stack is one CPU profile sample: its function names, leaf first, and the
// CPU time it stands for.
type stack struct {
	frames []string
	ns     int64
}

// Named layers of the fold besides the program's modules.
const (
	layerHandoff = "cpu.handoff" // goroutine park/ready/schedule and idle-P spin
	layerRuntime = "runtime"     // GC and runtime work no program frame called
	layerBench   = "bench"       // this benchmark and its profiler
)

// layerOfPackage charges each module package to the layer the benchmark
// reports it under. Packages absent here (rng, stats, obs, experiments, the
// runtime and the standard library) are transparent: their time goes to the
// nearest caller that has a layer.
var layerOfPackage = map[string]string{
	"dsisim/internal/cpu":       "cpu",
	"dsisim/internal/event":     "event",
	"dsisim/internal/netsim":    "netsim",
	"dsisim/internal/proto":     "proto",
	"dsisim/internal/core":      "proto",
	"dsisim/internal/directory": "proto",
	"dsisim/internal/cache":     "cache",
	"dsisim/internal/blockmap":  "cache",
	"dsisim/internal/mem":       "cache",
	"dsisim/internal/faultinj":  "faultinj",
	"dsisim/internal/workload":  "workload",
	"dsisim":                    "machine",
	"dsisim/internal/machine":   "machine",
	"dsisim/internal/check":     "machine",
	"dsisim/internal/simcache":  "simcache",
	"dsisim/internal/soak":      "soak",
	"dsisim/internal/steal":     "soak",
	"main":                      layerBench,
	"runtime/pprof":             layerBench,
}

// gcFrames mark garbage-collector work wherever they appear on a stack,
// including assists a program frame's allocation triggered.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.sweepone", "runtime.scanobject", "runtime.greyobject",
	"runtime.wbBufFlush", "runtime.GC", "runtime._GC",
}

// schedulerFrames mark a stack without program frames as scheduler work: a
// processor goroutine parking, or an idle P looking for the next one.
var schedulerFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.goexit0": true, "runtime.stopm": true,
	"runtime.mPark": true, "runtime.notesleep": true, "runtime.futexsleep": true,
	"runtime.stealWork": true, "runtime.runqgrab": true, "runtime.runqsteal": true,
	"runtime.execute": true, "runtime.gosched_m": true, "runtime.goschedImpl": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.mstart": true,
	"runtime.mstart1": true, "runtime.mstart0": true, "runtime.checkTimers": true,
	"runtime.netpoll": true, "runtime.usleep": true, "runtime.osyield": true,
}

// packageOf returns the import path of a Go symbol name:
// "dsisim/internal/proto.(*CacheCtrl).Handle" -> "dsisim/internal/proto".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isGC(fn string) bool {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// classify names the layer a sample's CPU time is charged to, "" when no
// named layer can take it.
//
// The rules: GC work goes to runtime wherever it is reached from. Otherwise
// the nearest frame with a layer takes the sample as self time, except that
// runtime work reached directly from internal/cpu is the goroutine handoff.
// A stack with no program frame is the scheduler's (handoff) when it shows
// scheduler frames, and runtime's when it is runtime code alone.
func classify(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return layerRuntime
		}
	}
	for _, f := range frames {
		layer, ok := layerOfPackage[packageOf(f)]
		if !ok {
			continue
		}
		if layer == "cpu" && packageOf(frames[0]) == "runtime" {
			return layerHandoff
		}
		return layer
	}
	runtimeOnly := len(frames) > 0
	for _, f := range frames {
		if schedulerFrames[f] {
			return layerHandoff
		}
		if !strings.HasPrefix(f, "runtime.") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return layerRuntime
	}
	return ""
}

// fold sums the samples' CPU time per layer; "" collects the time no named
// layer took. gcNs is the share of the runtime layer that is GC work.
func fold(samples []stack) (byLayer map[string]int64, total, gcNs int64) {
	byLayer = make(map[string]int64)
	for _, s := range samples {
		layer := classify(s.frames)
		byLayer[layer] += s.ns
		total += s.ns
		if layer == layerRuntime {
			for _, f := range s.frames {
				if isGC(f) {
					gcNs += s.ns
					break
				}
			}
		}
	}
	return byLayer, total, gcNs
}

// readProfile decodes a gzipped pprof CPU profile (the format runtime/pprof
// writes) into stacks. It reads only the fields the fold needs.
func readProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		sampleType [][2]int64 // (type, unit) string indexes
		samples    []pbSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> name string index
		period     int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleType = append(sampleType, vt)
			return err
		case 2: // sample
			var s pbSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
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
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples, count) and (cpu, nanoseconds); use the
	// nanoseconds, or samples x period when the profile has no such value.
	nsIdx := -1
	for i, vt := range sampleType {
		if str(vt[1]) == "nanoseconds" {
			nsIdx = i
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{}
		if nsIdx >= 0 && nsIdx < len(s.values) {
			st.ns = int64(s.values[nsIdx])
		} else if len(s.values) > 0 {
			st.ns = int64(s.values[0]) * period
		}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				st.frames = append(st.frames, str(funcName[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

type pbSample struct {
	locs, values []uint64
}

// appendPacked appends a repeated scalar field that arrives either packed
// (b set) or as a single varint.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
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

// eachField walks one protobuf message, calling fn with each field's number
// and either its scalar value (varint and fixed wire types) or its bytes
// (length-delimited).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
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
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
