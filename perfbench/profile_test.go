package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// pb appends protocol buffer fields.
type pb []byte

func (p *pb) varint(num int, v uint64) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(num)<<3), v)
}

func (p *pb) bytes(num int, data []byte) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(num)<<3|2), uint64(len(data)))
	*p = append(*p, data...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

// synthSample is one sample of a synthetic profile: each location lists its
// functions innermost first, as an inlined call chain does.
type synthSample struct {
	locs     [][]string
	span     string
	cpuNs    int64
	unpacked bool // encode location ids as separate fields
}

// synthProfile encodes samples as runtime/pprof would: sample types
// samples/count and cpu/nanoseconds, gzipped.
func synthProfile(t *testing.T, samples []synthSample) []byte {
	t.Helper()
	strs := []string{""}
	str := func(s string) uint64 {
		if i := slices.Index(strs, s); i >= 0 {
			return uint64(i)
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	funcs := map[string]uint64{}
	var out pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.varint(1, str(vt[0]))
		m.varint(2, str(vt[1]))
		out.bytes(profSampleType, m)
	}
	var locs, fns pb
	nextLoc := uint64(1)
	for _, s := range samples {
		var ids []uint64
		for _, loc := range s.locs {
			var l pb
			l.varint(locationID, nextLoc)
			for _, fn := range loc {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pb
					f.varint(functionID, id)
					f.varint(functionName, str(fn))
					fns.bytes(profFunction, f)
				}
				var line pb
				line.varint(lineFunction, id)
				line.varint(2, 42)
				l.bytes(locationLine, line)
			}
			locs.bytes(profLocation, l)
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var m pb
		if s.unpacked {
			for _, id := range ids {
				m.varint(sampleLocationID, id)
			}
		} else {
			m.packed(sampleLocationID, ids...)
		}
		m.packed(sampleValue, uint64(s.cpuNs/1e7), uint64(s.cpuNs))
		if s.span != "" {
			var l pb
			l.varint(labelKey, str("span"))
			l.varint(labelStr, str(s.span))
			m.bytes(sampleLabel, l)
		}
		out.bytes(profSample, m)
	}
	out = append(out, locs...)
	out = append(out, fns...)
	out.varint(12, 10000000) // period
	for _, s := range strs {
		out.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(out); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	const ms = int64(time.Millisecond)
	raw := synthProfile(t, []synthSample{
		{ // the heartbeat driver calling a master's handler
			locs: [][]string{
				{"hog/internal/mapred.(*JobTracker).HeartbeatTracker"},
				{"hog/internal/core.NewSystem.func7"},
				{"hog/internal/sim.tickerTick"},
				{"hog/internal/core.(*System).startWorkload"},
			},
			span: "start_workload", cpuNs: 30 * ms, unpacked: true,
		},
		{ // retryNN inlined into the driver: one location, two lines
			locs: [][]string{
				{"hog/internal/core.(*System).retryNN", "hog/internal/core.NewSystem.func7"},
				{"hog/internal/sim.tickerTick"},
			},
			span: "start_workload", cpuNs: 40 * ms,
		},
		{ // another NewSystem ticker: not the heartbeat driver
			locs: [][]string{{"hog/internal/core.NewSystem.func8"}, {"hog/internal/sim.tickerTick"}},
			span: "run_to", cpuNs: 5 * ms,
		},
		{ // runtime leaf under the network model
			locs: [][]string{
				{"runtime.memmove"},
				{"hog/internal/netmodel.(*Network).rebalance"},
				{"hog/internal/sim.(*Engine).step"},
			},
			span: "run_to", cpuNs: 20 * ms,
		},
		{ // background GC worker: unlabelled
			locs:  [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
			cpuNs: 10 * ms,
		},
		{ // a module outside the reported layers, under an unknown span
			locs: [][]string{{"hog/internal/audit.(*Auditor).Sweep"}, {"main.main"}},
			span: "bogus", cpuNs: 1 * ms,
		},
	})
	samples, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(samples)
	want := map[string]int64{
		"trace.cpu_s":                 106 * ms,
		"mapred.self_s":               30 * ms,
		"core.self_s":                 45 * ms,
		"netmodel.self_s":             20 * ms,
		"gc.self_s":                   10 * ms,
		"other.self_s":                1 * ms,
		"sim.self_s":                  0,
		"core.heartbeat.cum_s":        70 * ms,
		"mapred.heartbeat.cum_s":      30 * ms,
		"netmodel.rebalance.cum_s":    20 * ms,
		"hdfs.checkdead.cum_s":        0,
		"span.start_workload.self_s":  70 * ms,
		"span.run_to.self_s":          25 * ms,
		"span.none.self_s":            11 * ms,
		"span.finish_workload.self_s": 0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, time.Duration(got[k]), time.Duration(v))
		}
	}
	n := len(layers) + len(spans) + len(cumRules) + 2
	if len(got) != n {
		t.Errorf("attribute returned %d metrics, want %d", len(got), n)
	}
}

func TestParseProfileRejectsCorruptInput(t *testing.T) {
	raw := synthProfile(t, []synthSample{{locs: [][]string{{"main.main"}}, cpuNs: 1}})
	if _, err := parseProfile(raw[:len(raw)/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x00}) // sample field claiming 127 bytes
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("overlong field decoded without error")
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// TestParseRuntimeProfile decodes a profile runtime/pprof really wrote.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("span", "run_to"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, s := range samples {
		if s.labels["span"] == "run_to" && slices.Contains(s.stack, "hog/perfbench.spin") {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no labelled sample in spin among %d samples", len(samples))
	}
}
