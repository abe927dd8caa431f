// Command perfbench is the host-time benchmark of the HOG simulator. It
// drives whole simulations through core's public lifecycle (NewSystem,
// Apply, StartWorkload, RunTo, FinishWorkload), checks every simulated
// result against a committed digest, and prints each metric with its unit.
// With -trace 1 it also runs the workload under a CPU profile and reports
// CPU seconds per layer (internal module) and per lifecycle phase. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: mega-idle, large-jobs or osg-faults")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 30, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a CPU-profiled run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	printEnv()
	out, err := bench(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, k := range sortedKeys(out.Metrics) {
		fmt.Printf("%-32s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench measures w for about budget and folds what it ran into the result.
//
// Untraced, a run first sets up the workload's set-up-only inputs, then
// makes passes over its cases until the next pass would overrun budget (at
// least one pass). Traced, it alternates an untraced and a CPU-profiled run
// of case 0 (at least one of each), so the per-layer figures describe one
// case and the untraced runs give the tracing overhead.
func bench(name string, w workloadDef, seed int64, budget time.Duration, trace bool) (result, error) {
	start := time.Now()
	if !trace {
		var setups []simResult
		var setupErrs []error
		for i := 0; i < w.setupOnly; i++ {
			s := inputSeed(seed, w.cases*w.sims+i)
			r, err := simulate(w, s, 0, true)
			setups = append(setups, r)
			if err != nil {
				setupErrs = append(setupErrs, fmt.Errorf("seed %d set-up: %w", s, err))
			}
		}
		var passes [][]caseRun
		for {
			t := time.Now()
			var pass []caseRun
			for k := 0; k < w.cases; k++ {
				pass = append(pass, runCase(w, caseSeed(w, seed, k)))
			}
			passes = append(passes, pass)
			if time.Since(start)+time.Since(t) > budget {
				break
			}
		}
		return endToEnd(name, passes, setups, setupErrs), nil
	}

	var plain, traced []caseRun
	var samples []sample
	for {
		if len(traced) < len(plain) {
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return result{}, fmt.Errorf("start CPU profile: %w", err)
			}
			traced = append(traced, runCase(w, seed))
			pprof.StopCPUProfile()
			s, err := parseProfile(buf.Bytes())
			if err != nil {
				return result{}, fmt.Errorf("decode CPU profile: %w", err)
			}
			samples = append(samples, s...)
		} else {
			plain = append(plain, runCase(w, seed))
		}
		if len(traced) > 0 && time.Since(start)+traced[len(traced)-1].wall > budget {
			break
		}
	}
	return perLayer(name, plain, traced, samples), nil
}

// check verifies every case's simulated results: no simulation failed,
// the digest equals the committed reference for the workload and case seed
// (when there is one), and repeated runs of a case agree. Every simulation
// of a case that fails the check counts as failed.
func check(name string, cases []caseRun) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	first := map[int64]string{}
	for _, c := range cases {
		d := c.digest()
		var setups []string
		for _, s := range c.sims {
			setups = append(setups, fmt.Sprintf("%.3fs", s.setup.Seconds()))
		}
		fmt.Printf("# case seed %d digest %s wall %.3fs setup %s\n", c.seed, d, c.wall.Seconds(), strings.Join(setups, " "))
		var bad []string
		if want, ok := referenceDigests[name][c.seed]; !ok {
			fmt.Printf("# no reference digest for %s case seed %d\n", name, c.seed)
		} else if d != want {
			bad = append(bad, fmt.Sprintf("digest %s, reference %s", d, want))
		}
		if f, ok := first[c.seed]; !ok {
			first[c.seed] = d
		} else if d != f {
			bad = append(bad, fmt.Sprintf("digest %s differs from an earlier run's %s", d, f))
		}
		if name == "mega-idle" && c.seed == 1 && c.errs[0] == nil {
			if err := checkBaseline(c.sims[0].baseline); err != nil {
				bad = append(bad, err.Error())
			}
		}
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "perfbench: %s case seed %d: %s\n", name, c.seed, b)
		}
		for j, err := range c.errs {
			out.Attempted++
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s case seed %d simulation %d: %v\n", name, c.seed, j, err)
			}
			if err != nil || len(bad) > 0 {
				out.Failed++
				out.Correct = false
			}
		}
	}
	return out
}

// endToEnd reports the end-to-end metrics of untraced passes and of the
// setup-only simulations that preceded them. A failed set-up counts as a
// failed simulation.
func endToEnd(name string, passes [][]caseRun, setups []simResult, setupErrs []error) result {
	var all []caseRun
	var setup, run, heap []float64
	for _, s := range setups {
		setup = append(setup, s.setup.Seconds())
	}
	for _, pass := range passes {
		var runSum float64
		for _, c := range pass {
			all = append(all, c)
			runSum += c.run().Seconds()
			for _, s := range c.sims {
				setup = append(setup, s.setup.Seconds())
				heap = append(heap, float64(s.peakHeap)/(1<<20))
			}
		}
		run = append(run, runSum/float64(len(pass)))
	}
	out := check(name, all)
	for _, err := range setupErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s %v\n", name, err)
	}
	out.Attempted += len(setups)
	out.Failed += len(setupErrs)
	out.Correct = out.Correct && len(setupErrs) == 0
	s := simulated(passes[0])
	set := out.set
	set("setup_s", median(setup), "s")
	set("run_s", median(run), "s")
	set("peak_heap_mb", median(heap), "MB")
	set("sim_makespan_s", s.makespan, "s")
	set("sim_job_p50_s", s.p50, "s")
	set("sim_job_ok_frac", frac(s.submitted-s.failed, s.submitted), "1")
	set("run_ok_frac", frac(out.Attempted-out.Failed, out.Attempted), "1")
	return out
}

// perLayer reports the per-layer metrics of case 0: CPU seconds from the
// traced runs' profile, exact counts, and host figures of the untraced runs.
func perLayer(name string, plain, traced []caseRun, samples []sample) result {
	out := check(name, append(append([]caseRun(nil), plain...), traced...))
	set := out.set
	for k, ns := range attribute(samples) {
		set(k, float64(ns)/1e9/float64(len(traced)), "s")
	}
	c := plain[0].counts()
	var nsPerEvent, allocMB, gcs, plainWall, tracedWall []float64
	for _, r := range plain {
		nsPerEvent = append(nsPerEvent, float64(r.wall.Nanoseconds())/max(float64(c.eventsFired), 1))
		allocMB = append(allocMB, float64(r.allocB)/(1<<20))
		gcs = append(gcs, float64(r.gcs))
		plainWall = append(plainWall, r.wall.Seconds())
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall.Seconds())
	}
	set("trace.overhead_frac", median(tracedWall)/median(plainWall)-1, "1")
	set("sim.host_ns_per_event", median(nsPerEvent), "ns")
	set("host.alloc_mb", median(allocMB), "MB")
	set("host.gc_cycles", median(gcs), "count")
	set("sim.events_fired", float64(c.eventsFired), "count")
	set("sim.events_scheduled", float64(c.eventsScheduled), "count")
	set("sim.rng_draws", float64(c.rngDraws), "count")
	set("netmodel.flows_started", float64(c.flowsStarted), "count")
	set("netmodel.flow_cancel_frac", frac(c.flowsCanceled, c.flowsStarted), "1")
	set("netmodel.cross_site_frac", c.bytesCrossSite/max(c.bytesTotal, 1), "1")
	set("grid.provisioned", float64(c.provisioned), "count")
	set("grid.preempted", float64(c.preempted), "count")
	set("mapred.attempts_started", float64(c.mapAttempts+c.reduceAttempts), "count")
	set("mapred.attempt_fail_frac", frac(c.mapFailed+c.reduceFailed, c.mapAttempts+c.reduceAttempts), "1")
	set("mapred.speculative", float64(c.speculative), "count")
	set("mapred.node_local_frac", frac(c.locality[0], c.locality[0]+c.locality[1]+c.locality[2]), "1")
	set("mapred.jobs_failed", float64(simulated(plain[:1]).failed), "count")
	set("hdfs.replications", float64(c.replications), "count")
	set("hdfs.replicated_gb", c.bytesReplicated/1e9, "GB")
	set("hdfs.blocks_lost", float64(c.blocksLost), "count")
	set("hdfs.corrupt_reads_detected", float64(c.corruptReadsDetected), "count")
	return out
}

func (r result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// checkBaseline compares mega-idle at seed 1 with the mega row of the
// repository's BENCH_baseline.json, which hogbench -exp mega -quick wrote.
func checkBaseline(got baselineRow) error {
	data, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		return fmt.Errorf("baseline cross-check: %w", err)
	}
	var doc struct {
		Experiments []struct {
			ID     string `json:"id"`
			Trials []struct {
				Metrics map[string]float64 `json:"metrics"`
			} `json:"trials"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("baseline cross-check: %w", err)
	}
	for _, e := range doc.Experiments {
		if e.ID != "mega" || len(e.Trials) != 1 {
			continue
		}
		m := e.Trials[0].Metrics
		want := baselineRow{
			events:     int(m["events_fired"]),
			flows:      int(m["flows_started"]),
			reached:    int(m["reached_nodes"]),
			jobsFailed: int(m["jobs_failed"]),
			response:   m["response_s"],
		}
		if got != want {
			return fmt.Errorf("baseline cross-check: mega-idle seed 1 gave %+v, BENCH_baseline.json mega row has %+v", got, want)
		}
		fmt.Printf("# baseline cross-check: %+v matches BENCH_baseline.json\n", got)
		return nil
	}
	return errors.New("baseline cross-check: no single-trial mega row in BENCH_baseline.json")
}

// printEnv records what a later comparison needs to tell whether two
// outputs came from the same machine and code.
func printEnv() {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	fmt.Printf("# env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func sortedKeys(m map[string]metric) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
