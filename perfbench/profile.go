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

// A CPU profile as runtime/pprof writes it: a gzipped protocol buffer in
// the format of github.com/google/pprof's profile.proto. No module this
// repository requires parses it, so the few messages attribution needs are
// decoded here.

// sample is one decoded CPU profile sample, reduced to what attribution
// needs.
type sample struct {
	stack  []string // function names, innermost frame first
	labels map[string]string
	cpuNs  int64
}

// profile.proto field numbers.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
	valueTypeUnit = 2
)

// parseProfile decodes the samples of a gzipped CPU profile.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, str string-table indices
	}
	var (
		sampleTypes [][2]uint64 // type, unit string-table indices
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → name index
		strs        []string
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			var t [2]uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType || num == valueTypeUnit {
					t[num-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case profSample:
			var s rawSample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocationID:
					s.locs = appendScalars(s.locs, v, data)
				case sampleValue:
					s.values = appendScalars(s.values, v, data)
				case sampleLabel:
					var l [2]uint64
					err := fields(data, func(num int, v uint64, _ []byte) error {
						if num == labelKey || num == labelStr {
							l[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	cpu := -1
	for i, t := range sampleTypes {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		if typ == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	var out []sample
	for _, rs := range samples {
		if cpu >= len(rs.values) {
			return nil, fmt.Errorf("sample has %d values, want > %d", len(rs.values), cpu)
		}
		s := sample{cpuNs: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			fns, ok := locLines[loc]
			if !ok {
				return nil, fmt.Errorf("sample refers to unknown location %d", loc)
			}
			for _, fn := range fns {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		for _, l := range rs.labels {
			k, err := str(l[0])
			if err != nil {
				return nil, err
			}
			v, err := str(l[1])
			if err != nil {
				return nil, err
			}
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[k] = v
		}
		out = append(out, s)
	}
	return out, nil
}

// fields calls fn for each field of the protocol buffer message b. A varint
// or fixed-width field passes its value as v; a length-delimited field
// passes its bytes as data.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendScalars appends a repeated varint field's value: one value v when
// unpacked, or every varint in data when packed.
func appendScalars(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}

// internalPrefix marks the module's own packages; the package name after
// it names the layer.
const internalPrefix = "hog/internal/"

// layers are the reported layers: the modules whose cost the workloads are
// built to move, the garbage collector's background workers, and "other"
// for everything else (other modules, the runtime, this benchmark).
var layers = []string{"core", "disk", "gc", "grid", "hdfs", "mapred", "netmodel", "other", "sim"}

// spans are the benchmark phases, one per labelled call into core; "none"
// collects unlabelled samples such as the garbage collector's workers.
var spans = []string{"apply", "finish_workload", "generate", "new_system", "none", "run_to", "start_workload"}

// cumRules name the functions whose inclusive (cumulative) CPU time is
// reported: a sample counts once if any frame on its stack matches.
var cumRules = []struct {
	metric   string
	prefixes []string
}{
	{"mapred.heartbeat.cum_s", []string{"hog/internal/mapred.(*JobTracker).HeartbeatTracker"}},
	{"hdfs.heartbeat.cum_s", []string{"hog/internal/hdfs.(*Namenode).HeartbeatDatanode"}},
	{"mapred.checkdead.cum_s", []string{"hog/internal/mapred.(*JobTracker).checkDead"}},
	{"hdfs.checkdead.cum_s", []string{"hog/internal/hdfs.(*Namenode).checkDead"}},
	{"core.alive_sample.cum_s", []string{"hog/internal/core.(*System).reportedAlive"}},
	{"netmodel.rebalance.cum_s", []string{"hog/internal/netmodel.(*Network).rebalance"}},
	{"sim.queue.cum_s", []string{
		"hog/internal/sim.(*wheelQ).", "hog/internal/sim.(*shardQ).", "hog/internal/sim.(*heapQ).",
		"hog/internal/sim.eventHeap.", "hog/internal/sim.(*eventHeap).",
	}},
	{"hdfs.placement.cum_s", []string{
		"hog/internal/hdfs.(*Namenode).chooseTargets", "hog/internal/hdfs.gridPlacement.", "hog/internal/hdfs.randomPlacement.",
	}},
	{"hdfs.replication.cum_s", []string{
		"hog/internal/hdfs.(*Namenode).pumpReplication", "hog/internal/hdfs.(*Namenode).queueReplication",
		"hog/internal/hdfs.fifoOrder.", "hog/internal/hdfs.rarestOrder.",
	}},
}

// The core heartbeat driver is an anonymous ticker closure in
// core.NewSystem, so its compiler-given name (NewSystem.funcN) is not
// fixed. It is recognised as the NewSystem closure that directly calls a
// master's heartbeat handler or the master-loss retry path.
const newSystemClosure = "hog/internal/core.NewSystem.func"

var heartbeatCallees = map[string]bool{
	"hog/internal/mapred.(*JobTracker).HeartbeatTracker": true,
	"hog/internal/hdfs.(*Namenode).HeartbeatDatanode":    true,
	"hog/internal/core.(*System).retryNN":                true,
	"hog/internal/core.(*System).retryJT":                true,
}

// layerOf returns the layer a stack's CPU time belongs to: the innermost
// hog/internal/<module> frame's module, "gc" for the runtime's background
// mark workers, or "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			for _, l := range layers {
				if l == mod {
					return mod
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	return "other"
}

// attribute returns CPU nanoseconds per metric: <layer>.self_s for every
// layer, span.<phase>.self_s for every span, each cumRules metric,
// core.heartbeat.cum_s, and trace.cpu_s, the total.
func attribute(samples []sample) map[string]int64 {
	out := map[string]int64{"core.heartbeat.cum_s": 0, "trace.cpu_s": 0}
	for _, l := range layers {
		out[l+".self_s"] = 0
	}
	for _, s := range spans {
		out["span."+s+".self_s"] = 0
	}
	for _, r := range cumRules {
		out[r.metric] = 0
	}

	driver := map[string]bool{}
	for _, s := range samples {
		for i := 1; i < len(s.stack); i++ {
			if heartbeatCallees[s.stack[i-1]] && strings.HasPrefix(s.stack[i], newSystemClosure) {
				driver[s.stack[i]] = true
			}
		}
	}

	for _, s := range samples {
		ns := s.cpuNs
		out["trace.cpu_s"] += ns
		out[layerOf(s.stack)+".self_s"] += ns
		sp := s.labels["span"]
		if _, ok := out["span."+sp+".self_s"]; !ok {
			sp = "none"
		}
		out["span."+sp+".self_s"] += ns
		for _, r := range cumRules {
			if anyFrame(s.stack, func(fn string) bool { return hasAnyPrefix(fn, r.prefixes) }) {
				out[r.metric] += ns
			}
		}
		if anyFrame(s.stack, func(fn string) bool { return driver[fn] }) {
			out["core.heartbeat.cum_s"] += ns
		}
	}
	return out
}

func anyFrame(stack []string, match func(string) bool) bool {
	for _, fn := range stack {
		if match(fn) {
			return true
		}
	}
	return false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
