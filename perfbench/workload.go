package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"hog/internal/core"
	"hog/internal/experiments"
	"hog/internal/grid"
	"hog/internal/mapred"
	"hog/internal/sim"
	"hog/internal/workload"
)

// workloadDef is one benchmark workload: a fixed set of simulations, all
// derived from the run's seed.
type workloadDef struct {
	// cases is the number of case seeds a run simulates; more cases
	// average out how much the work varies from one seed to the next.
	cases int
	// sims is the number of simulations per case; simulation idx of the
	// case with seed c runs config(s) with scenarios(s, idx, jobs) applied,
	// where s = inputSeed(c, idx).
	sims int
	// setupOnly is the number of extra inputs a run takes only through
	// StartWorkload, before its timed passes. Where the pool
	// provisions under churn, set-up work varies with the seed; these keep
	// setup_s a median over many inputs and warm the process up.
	setupOnly int
	scale     float64
	config    func(seed int64) core.Config
	scenarios func(seed int64, idx int, jobs []workload.JobSpec) []*core.Scenario
}

var workloads = map[string]workloadDef{
	// Exactly `hogbench -exp mega -quick`. The pool never reaches its
	// 10,000-node target, so provisioning runs the full 12 simulated hours
	// with idle trackers: host time goes to the heartbeat driver and the
	// masters' dead scans, not to the network model.
	"mega-idle": {
		cases:  3,
		sims:   1,
		scale:  0.25,
		config: func(seed int64) core.Config { return core.MegaGridConfig(10000, grid.ChurnStable, seed) },
	},
	// Busy trackers and the highest event rate: engine queue, task
	// assignment, HDFS placement and the network model share the time.
	"large-jobs": {
		cases:  6,
		sims:   1,
		scale:  4,
		config: func(seed int64) core.Config { return core.LargeGridConfig(1000, grid.ChurnStable, seed) },
	},
	// The paper's five OSG sites under unstable churn with one CHAOS or
	// CHAOS2 fault schedule per simulation: failure detection, retry
	// backoff, re-replication and WAN contention (netmodel.rebalance) do the
	// work. Simulations 0 and 1 run CHAOS schedules 0 and 1 (the odd one
	// also crashes the JobTracker), 2 and 3 run CHAOS2 schedules 0 and 1
	// (the odd one adds node-level cuts). Each script is conflict-free by
	// construction, but the two layered on one system can put steps on the
	// same target at the same instant, which Apply rejects.
	"osg-faults": {
		cases:     5,
		sims:      4,
		setupOnly: 30,
		scale:     1,
		config:    func(seed int64) core.Config { return core.HOGConfig(180, grid.ChurnUnstable, seed) },
		scenarios: func(seed int64, idx int, jobs []workload.JobSpec) []*core.Scenario {
			if idx < 2 {
				return []*core.Scenario{experiments.ChaosScenario(seed, idx)}
			}
			return []*core.Scenario{experiments.Chaos2Scenario(seed, idx-2, jobs)}
		},
	},
}

// simResult is one simulation's host timings and simulated outcome.
type simResult struct {
	setup, run time.Duration
	peakHeap   uint64

	makespan  sim.Time
	responses []sim.Time // succeeded jobs only
	submitted int
	failed    int // jobs that ended failed or never finished

	digest string
	counts counts
	// baseline holds the values the BENCH_baseline.json mega row records.
	baseline baselineRow
}

// counts are the exact per-layer counters read from public accessors.
type counts struct {
	eventsFired, eventsScheduled, rngDraws uint64

	flowsStarted, flowsCanceled int
	bytesTotal, bytesCrossSite  float64

	provisioned, preempted int

	mapAttempts, mapFailed, reduceAttempts, reduceFailed int
	speculative                                          int
	locality                                             [3]int

	replications, blocksLost, corruptReadsDetected int
	bytesReplicated                                float64
}

func (c *counts) add(o counts) {
	c.eventsFired += o.eventsFired
	c.eventsScheduled += o.eventsScheduled
	c.rngDraws += o.rngDraws
	c.flowsStarted += o.flowsStarted
	c.flowsCanceled += o.flowsCanceled
	c.bytesTotal += o.bytesTotal
	c.bytesCrossSite += o.bytesCrossSite
	c.provisioned += o.provisioned
	c.preempted += o.preempted
	c.mapAttempts += o.mapAttempts
	c.mapFailed += o.mapFailed
	c.reduceAttempts += o.reduceAttempts
	c.reduceFailed += o.reduceFailed
	c.speculative += o.speculative
	for i := range c.locality {
		c.locality[i] += o.locality[i]
	}
	c.replications += o.replications
	c.blocksLost += o.blocksLost
	c.corruptReadsDetected += o.corruptReadsDetected
	c.bytesReplicated += o.bytesReplicated
}

type baselineRow struct {
	events, flows, reached, jobsFailed int
	response                           float64
}

// span runs fn with the pprof label span=name, so a traced run can
// attribute CPU samples to the benchmark phase that caused them.
// Goroutines fn starts inherit the label.
func span(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
}

// simulate runs simulation idx of w through core's public lifecycle, or
// with setupOnly only until its first job submission. A panic inside the
// simulator is returned as an error.
func simulate(w workloadDef, seed int64, idx int, setupOnly bool) (r simResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.GC()
	stopHeap := watchHeap()
	defer func() { r.peakHeap = stopHeap() }()

	var (
		sched *workload.Schedule
		sys   *core.System
	)
	t0 := time.Now()
	span("generate", func() { sched = workload.Generate(seed, workload.Config{Scale: w.scale}) })
	span("new_system", func() { sys, err = core.NewSystem(w.config(seed)) })
	if err != nil {
		return r, fmt.Errorf("NewSystem: %w", err)
	}
	if w.scenarios != nil {
		span("apply", func() {
			for _, sc := range w.scenarios(seed, idx, sched.Jobs) {
				if err = sys.Apply(sc); err != nil {
					return
				}
			}
		})
		if err != nil {
			return r, fmt.Errorf("Apply: %w", err)
		}
	}
	// StartWorkload provisions to target and stages the inputs itself;
	// calling AwaitNodes first would provision a second time.
	span("start_workload", func() { err = sys.StartWorkload(sched) })
	if err != nil {
		return r, fmt.Errorf("StartWorkload: %w", err)
	}
	t1 := time.Now()
	r.setup = t1.Sub(t0)
	if setupOnly {
		return r, nil
	}
	// RunTo covers the submission window, FinishWorkload the drain.
	span("run_to", func() { err = sys.RunTo(sys.RunStart() + sched.Span()) })
	if err != nil {
		return r, fmt.Errorf("RunTo: %w", err)
	}
	var res *core.Result
	span("finish_workload", func() { res = sys.FinishWorkload() })
	t2 := time.Now()
	r.run = t2.Sub(t1)

	r.makespan = res.ResponseTime
	h := sha256.New()
	for _, j := range sys.JT.Jobs() {
		r.submitted++
		if j.State == mapred.JobSucceeded {
			r.responses = append(r.responses, j.ResponseTime())
		} else {
			r.failed++
		}
		fmt.Fprintf(h, "job %s %v %d %d %d/%d %d/%d\n", j.Config.Name, j.State, j.SubmitTime, j.FinishTime,
			j.CompletedMaps(), j.NumMaps(), j.CompletedReduces(), j.NumReduces())
	}
	if r.submitted != len(sched.Jobs) {
		return r, fmt.Errorf("%d of %d jobs submitted", r.submitted, len(sched.Jobs))
	}
	streams := sys.RNGStreams()
	fmt.Fprintf(h, "response %d failed %d locality %v\ncounters %+v\nnet %+v\nnn %+v\npool %+v alive %d\nevents %d %d\nrng %+v\n",
		res.ResponseTime, res.JobsFailed, res.MapLocality, res.Counters, res.Net, res.NN, res.Pool,
		sys.Pool.AliveCount(), sys.Eng.Fired(), sys.Eng.SeqCount(), streams)
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]

	c := &r.counts
	c.eventsFired, c.eventsScheduled = sys.Eng.Fired(), sys.Eng.SeqCount()
	for _, s := range streams {
		c.rngDraws += s.Draws
	}
	c.flowsStarted, c.flowsCanceled = res.Net.FlowsStarted, res.Net.FlowsCanceled
	c.bytesTotal, c.bytesCrossSite = res.Net.BytesTotal, res.Net.BytesCrossSite
	c.provisioned, c.preempted = res.Pool.Provisioned, res.Pool.Preempted+res.Pool.BatchPreempted
	k := res.Counters
	c.mapAttempts, c.mapFailed = k.MapAttemptsStarted, k.MapAttemptsFailed
	c.reduceAttempts, c.reduceFailed = k.ReduceAttemptsStarted, k.ReduceAttemptsFailed
	c.speculative = k.SpeculativeMaps + k.SpeculativeReduces
	c.locality = res.MapLocality
	c.replications, c.blocksLost = res.NN.ReplicationsDone, res.NN.BlocksLost
	c.corruptReadsDetected, c.bytesReplicated = res.NN.CorruptReadsDetected, res.NN.BytesReplicated

	r.baseline = baselineRow{
		events:     int(sys.Eng.Fired()),
		flows:      res.Net.FlowsStarted,
		reached:    sys.Pool.AliveCount(),
		jobsFailed: res.JobsFailed,
		response:   res.ResponseTime.Seconds(),
	}
	return r, nil
}

// caseRun is one case of a workload: its simulations, run on one case seed.
type caseRun struct {
	seed   int64
	sims   []simResult
	errs   []error
	wall   time.Duration
	allocB uint64 // heap bytes allocated
	gcs    uint64 // completed GC cycles
}

func (c caseRun) digest() string {
	h := sha256.New()
	for _, s := range c.sims {
		fmt.Fprintln(h, s.digest)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (c caseRun) run() (d time.Duration) {
	for _, s := range c.sims {
		d += s.run
	}
	return d
}

func (c caseRun) counts() (n counts) {
	for _, s := range c.sims {
		n.add(s.counts)
	}
	return n
}

// inputSeed derives the seed of a run's input j: case k of w runs inputs
// k*w.sims to k*w.sims+w.sims-1, and its seed, caseSeed, is that of its
// first. Input 0 is the run's seed itself. The stride keeps the inputs of
// distinct run seeds disjoint, also modulo 2^31-1, to which math/rand
// reduces its seeds.
func inputSeed(seed int64, j int) int64 { return seed + int64(j)*seedStride }

const seedStride = 1000003

func caseSeed(w workloadDef, seed int64, k int) int64 { return inputSeed(seed, k*w.sims) }

func runCase(w workloadDef, seed int64) caseRun {
	c := caseRun{seed: seed}
	a0, g0 := readAllocs()
	t0 := time.Now()
	for idx := 0; idx < w.sims; idx++ {
		r, err := simulate(w, inputSeed(seed, idx), idx, false)
		c.sims = append(c.sims, r)
		c.errs = append(c.errs, err)
	}
	c.wall = time.Since(t0)
	a1, g1 := readAllocs()
	c.allocB, c.gcs = a1-a0, g1-g0
	return c
}

// simOutcome is the simulated end-to-end outcome of a set of cases.
type simOutcome struct {
	makespan          float64 // seconds, mean over cases of the sum over their simulations
	p50               float64 // seconds, median response over every succeeded job
	submitted, failed int
}

func simulated(cases []caseRun) simOutcome {
	var o simOutcome
	var resp []sim.Time
	for _, c := range cases {
		for _, s := range c.sims {
			o.makespan += s.makespan.Seconds()
			resp = append(resp, s.responses...)
			o.submitted += s.submitted
			o.failed += s.failed
		}
	}
	o.makespan /= float64(len(cases))
	sort.Slice(resp, func(i, j int) bool { return resp[i] < resp[j] })
	if n := len(resp); n > 0 {
		o.p50 = (resp[(n-1)/2] + resp[n/2]).Seconds() / 2
	}
	return o
}

func readAllocs() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// watchHeap samples the live-object heap every 10 ms until the returned
// stop function is called; stop returns the peak it saw.
func watchHeap() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var p uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p = max(p, s[0].Value.Uint64())
			select {
			case <-done:
				metrics.Read(s)
				peak <- max(p, s[0].Value.Uint64())
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}
