package core_test

import (
	"fmt"
	"testing"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/experiments"
	"hog/internal/grid"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/workload"
)

// The full-scan oracle checks event-driven failure detection against the
// brute-force rule it replaces, on whole runs with every fault family:
//
//   - After every heartbeat it re-derives, from each worker's state alone,
//     which records a beat over every worker would have refreshed (gray
//     drops replayed from the gray stream's seed). Refreshed records must
//     read a last beat of now; the others must not, unless something else
//     stamped them this instant (registration, a master restart, safe-mode
//     exit, a partition heal or node recovery, a preemption).
//   - Every worker that today's beat would have to handle on its own (cut
//     off, gray, retrying a lost master) must be in the irregular set.
//   - It takes over both masters' dead scans. At every scan it compares the
//     event-driven victim list (Expired) with a scan over every live record,
//     then marks the victims dead exactly as the master would.
//
// The run's event fingerprint must equal an unobserved run's, so the oracle
// checked the very run the simulator produces.

type beatOracle struct {
	t      *testing.T
	sys    *core.System
	gray   *core.GrayShadow
	nnScan *sim.Ticker
	jtScan *sim.Ticker

	// Records stamped by something other than a beat at stampAt.
	stampAt    sim.Time
	stampNN    bool
	stampJT    bool
	stampNodes map[netmodel.NodeID]bool

	workers []core.OracleWorker
	beats   int
	idle    int
	scans   int
	victims int
	errs    int
}

func attachBeatOracle(t *testing.T, sys *core.System) *beatOracle {
	o := &beatOracle{t: t, sys: sys, gray: core.NewGrayShadow(sys.Config().Seed), stampAt: -1}
	sys.Subscribe(o)
	sys.NN.Stop()
	sys.JT.Stop()
	o.nnScan = sys.Eng.Every(sys.NN.Config().CheckInterval, o.scanNN)
	o.jtScan = sys.Eng.Every(sys.JT.Config().CheckInterval, o.scanJT)
	sys.Eng.Every(sys.JT.Config().HeartbeatInterval, o.afterBeat)
	return o
}

// errorf reports a mismatch; the tenth ends the test, since a broken run can
// go on for simulated days.
func (o *beatOracle) errorf(format string, args ...any) {
	o.errs++
	o.t.Errorf("at %v: "+format, append([]any{o.sys.Eng.Now()}, args...)...)
	if o.errs == 10 {
		o.t.FailNow()
	}
}

// HandleEvent notes out-of-beat stamps and keeps the oracle's scans in step
// with the masters' own scan schedule: stopped by a crash, restarted where
// the master restarts its own (JobTracker restart, safe-mode exit).
func (o *beatOracle) HandleEvent(e event.Event) {
	if e.Time != o.stampAt {
		o.stampAt, o.stampNN, o.stampJT, o.stampNodes = e.Time, false, false, map[netmodel.NodeID]bool{}
	}
	switch e.Type {
	case event.MasterCrashed:
		if e.Detail == "namenode" {
			o.nnScan.Stop()
		} else {
			o.jtScan.Stop()
		}
	case event.MasterRecovered:
		if e.Detail == "namenode" {
			o.stampNN = true
		} else {
			o.stampJT = true
			o.sys.JT.Stop()
			o.jtScan = o.sys.Eng.Every(o.sys.JT.Config().CheckInterval, o.scanJT)
		}
	case event.SafeModeExited:
		o.stampNN = true
		o.sys.NN.Stop()
		o.nnScan = o.sys.Eng.Every(o.sys.NN.Config().CheckInterval, o.scanNN)
	case event.PartitionHealed:
		o.stampNN, o.stampJT = true, true
	case event.NodeJoined, event.NodeRecovered, event.NodePreempted:
		o.stampNodes[e.Node] = true
	}
}

func (o *beatOracle) stamped(nn bool, id netmodel.NodeID) bool {
	if o.stampAt != o.sys.Eng.Now() {
		return false
	}
	return o.stampNodes[id] || (nn && o.stampNN) || (!nn && o.stampJT)
}

// afterBeat runs right after the heartbeat driver at the same instant.
func (o *beatOracle) afterBeat() {
	o.beats++
	now := o.sys.Eng.Now()
	nnDown, jtDown := o.sys.NN.Down(), o.sys.JT.Down()
	if o.sys.Phase() == core.PhaseStarted && o.sys.JT.ActiveJobs() == 0 && !nnDown && !jtDown {
		o.idle++
	}
	o.workers = o.sys.OracleWorkers(o.workers[:0])
	for _, w := range o.workers {
		reachable := o.sys.Net.MasterReachable(w.ID)
		if !w.Dead && !w.Irregular && (!reachable || w.GrayLoss > 0 || w.JTLost || (w.Healthy && w.NNLost)) {
			o.errorf("worker %d needs a visit on every beat but is not irregular", w.ID)
		}
		beats := !w.Dead && reachable
		if beats && w.GrayLoss > 0 && o.gray.Drop(w.GrayLoss) {
			beats = false
		}
		if w.DN.Alive {
			o.checkBeat("datanode", w.ID, o.sys.NN.LastBeat(w.DN), beats && w.Healthy && !nnDown && !w.NNLost, now, true)
		}
		if w.TR.Alive {
			o.checkBeat("tracker", w.ID, o.sys.JT.LastBeat(w.TR), beats && !jtDown && !w.JTLost, now, false)
		}
	}
	if got, want := o.gray.Draws(), o.sys.GrayDraws(); got != want {
		o.t.Fatalf("at %v: oracle replayed %d gray draws, the driver made %d", now, got, want)
	}
}

func (o *beatOracle) checkBeat(rec string, id netmodel.NodeID, last sim.Time, beaten bool, now sim.Time, nn bool) {
	switch {
	case beaten && last != now:
		o.errorf("%s %d beat but its last beat reads %v", rec, id, last)
	case !beaten && last >= now && !o.stamped(nn, id):
		o.errorf("%s %d did not beat but was credited", rec, id)
	}
}

func (o *beatOracle) scanNN() {
	now, timeout := o.sys.Eng.Now(), o.sys.NN.Config().DeadTimeout
	var full []netmodel.NodeID
	for _, d := range o.sys.NN.AliveDatanodes() {
		if now-o.sys.NN.LastBeat(d) > timeout {
			full = append(full, d.ID)
		}
	}
	victims := o.sys.NN.Expired()
	var got []netmodel.NodeID
	for _, d := range victims {
		got = append(got, d.ID)
	}
	o.compare("namenode", got, full)
	for _, d := range victims {
		o.sys.NN.ForceDead(d.ID)
	}
}

func (o *beatOracle) scanJT() {
	now, timeout := o.sys.Eng.Now(), o.sys.JT.Config().TrackerTimeout
	var full []netmodel.NodeID
	for _, t := range o.sys.JT.AliveTrackers() {
		if now-o.sys.JT.LastBeat(t) > timeout {
			full = append(full, t.Node)
		}
	}
	victims := o.sys.JT.Expired()
	var got []netmodel.NodeID
	for _, t := range victims {
		got = append(got, t.Node)
	}
	o.compare("jobtracker", got, full)
	for _, t := range victims {
		o.sys.JT.ForceTrackerDead(t.Node)
	}
}

func (o *beatOracle) compare(master string, got, full []netmodel.NodeID) {
	o.scans++
	o.victims += len(got)
	if fmt.Sprint(got) != fmt.Sprint(full) {
		o.errorf("%s dead scan marks %v, a full scan finds %v", master, got, full)
	}
}

// runBeatOracle runs cfg under scenarios twice, once plain and once under
// the oracle, and requires equal event fingerprints.
func runBeatOracle(t *testing.T, cfg core.Config, sched *workload.Schedule, scenarios ...*core.Scenario) (*beatOracle, *event.Log) {
	t.Helper()
	run := func(oracle bool) (*beatOracle, *event.Log) {
		log := event.NewLog()
		sys, err := core.NewSystem(cfg, log)
		if err != nil {
			t.Fatal(err)
		}
		var o *beatOracle
		if oracle {
			o = attachBeatOracle(t, sys)
		}
		for _, sc := range scenarios {
			if err := sys.Apply(sc); err != nil {
				t.Fatal(err)
			}
		}
		sys.RunWorkload(sched)
		return o, log
	}
	o, log := run(true)
	_, plainLog := run(false)
	if plain, checked := plainLog.Fingerprint(), log.Fingerprint(); plain != checked {
		t.Errorf("oracle run fingerprint %016x, plain run %016x", checked, plain)
	}
	if o.scans == 0 || o.beats == 0 {
		t.Fatalf("oracle saw %d beats and %d scans", o.beats, o.scans)
	}
	t.Logf("%d beats (%d idle during the run), %d scans, %d victims", o.beats, o.idle, o.scans, o.victims)
	return o, log
}

const oracleSeed, oracleScale = 1, 0.25

func oracleSchedule() *workload.Schedule {
	return workload.Generate(oracleSeed, workload.Config{Scale: oracleScale})
}

// sparseSchedule submits two one-map jobs 1000 s apart, leaving the system
// idle for most of the run.
func sparseSchedule() *workload.Schedule {
	sched := &workload.Schedule{}
	for i, at := range []sim.Time{0, 1000 * sim.Second} {
		sched.Jobs = append(sched.Jobs, workload.JobSpec{
			Name: fmt.Sprintf("tiny-%d", i), Maps: 1, Reduces: 1, InputBytes: 64e6, Submit: at,
		})
	}
	return sched
}

func TestBeatOracleDedicated(t *testing.T) {
	o, _ := runBeatOracle(t, core.DedicatedClusterConfig(oracleSeed), sparseSchedule())
	if o.idle == 0 {
		t.Error("no idle beat during the run")
	}
}

func TestBeatOracleLargeGrid(t *testing.T) {
	cfg := core.LargeGridConfig(1000, grid.ChurnStable, oracleSeed)
	o, _ := runBeatOracle(t, cfg, oracleSchedule())
	if o.victims == 0 {
		t.Error("no worker was ever declared dead; the run exercised no detection")
	}
}

func TestBeatOracleChaos(t *testing.T) {
	for idx := 0; idx < experiments.ChaosScheduleCount; idx++ {
		t.Run(fmt.Sprint(idx), func(t *testing.T) {
			cfg := core.HOGConfig(60, grid.ChurnUnstable, oracleSeed)
			runBeatOracle(t, cfg, oracleSchedule(), experiments.ChaosScenario(oracleSeed, idx))
		})
	}
}

func TestBeatOracleChaos2(t *testing.T) {
	for idx := 0; idx < experiments.Chaos2ScheduleCount; idx++ {
		t.Run(fmt.Sprint(idx), func(t *testing.T) {
			cfg := core.HOGConfig(60, grid.ChurnUnstable, oracleSeed)
			sched := oracleSchedule()
			runBeatOracle(t, cfg, sched, experiments.Chaos2Scenario(oracleSeed, idx, sched.Jobs))
		})
	}
}

// TestBeatOracleFaultSpec walks every silence and resume path on purpose,
// under the busy quick workload and under a sparse one that leaves the
// system idle between tiny jobs, so faults land on idle beats too: a site
// partition long enough for both masters to declare the site dead, a short
// node cut healed before the timeout, gray loss heavy enough to kill, lifted
// by a restore and followed by a cut whose heal revives those records, a
// namenode crash and restart, and a JobTracker outage longer than the retry
// budget, so every tracker alive then gives up. Zombies self-check, so
// preemption takes the zombie path and its later death.
func TestBeatOracleFaultSpec(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched *workload.Schedule
		at    sim.Time // the fault script's start
	}{
		{"busy", oracleSchedule(), 0},
		// The first tiny job is done after about 200 s; the faults then
		// fall on idle beats.
		{"sparse", sparseSchedule(), 200 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.HOGConfig(60, grid.ChurnUnstable, oracleSeed)
			cfg.Zombie = core.ZombieDiskCheck
			cfg.MasterRetryTotal = 2 * sim.Minute
			at := func(s sim.Time) sim.Time { return tc.at + s*sim.Second }
			sc := core.NewScenario("beat-oracle").
				PartitionSiteAt(at(20), "UCSDT2", "both").
				PartitionNodesAt(at(40), "AGLT2", 3, "out").
				HealPartitionAt(at(55), "AGLT2").
				DegradeNodesAt(at(60), "FNAL_FERMIGRID", 5, 2, 0.95).
				HealPartitionAt(at(130), "UCSDT2").
				RestoreNodesAt(at(160), "FNAL_FERMIGRID").
				PartitionNodesAt(at(200), "FNAL_FERMIGRID", 2, "out").
				HealPartitionAt(at(215), "FNAL_FERMIGRID").
				CrashNameNodeAt(at(250)).
				RestartMastersAfter(at(300)).
				CrashJobTrackerAt(at(330)).
				RestartMastersAfter(at(480))
			o, log := runBeatOracle(t, cfg, tc.sched, sc)
			for _, typ := range []event.Type{event.NodeDead, event.NodeRecovered, event.ZombieDetected, event.TrackerReregistered, event.MasterGiveUp} {
				if log.Count(typ) == 0 {
					t.Errorf("the spec produced no %v event", typ)
				}
			}
			if tc.at > 0 && o.idle == 0 {
				t.Error("no idle beat during the run")
			}
		})
	}
}

// TestBeatOracleDiskOverflow shrinks scratch space as the A-DISK ablation's
// smallest setting does, so map output overflows disks and the daemons of
// the overflowing workers shut down mid-run (§IV.D.2).
func TestBeatOracleDiskOverflow(t *testing.T) {
	const nodes = 60
	sched := oracleSchedule()
	var input float64
	for _, j := range sched.Jobs {
		input += j.InputBytes
	}
	cfg := core.HOGConfig(nodes, grid.ChurnNone, oracleSeed)
	cfg.Grid.Pool.DiskBytesPerNode = input * 10 / nodes * 1.15
	cfg.Costs.ReduceCostPerMB = 400 * sim.Millisecond
	_, log := runBeatOracle(t, cfg, sched)
	killed := 0
	for _, e := range log.Events() {
		if e.Type == event.NodePreempted && e.Detail == "killed" {
			killed++
		}
	}
	if killed == 0 {
		t.Error("no disk overflow killed a worker")
	}
}
