package experiments

import (
	"testing"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/sim"
)

// crashFingerprint is the comparison record for the master-outage run:
// headline result plus the recovery event census.
type crashFingerprint struct {
	Response   sim.Time
	Fired      uint64
	Flows      int
	JobsFailed int
	Crashed    int
	Recovered  int
	Rereg      int
}

// masterCrashRun drives the 1000-node grid through a double master outage
// whose crash instants sit off any round boundary (301.017 s, 302 s after
// workload start) and whose restart lands minutes later. With no cuts the
// workload runs in one RunWorkload call; otherwise StartWorkload, one
// RunTo per cut (offsets from workload start), then FinishWorkload.
func masterCrashRun(t *testing.T, cuts []sim.Time) crashFingerprint {
	t.Helper()
	sys := core.New(core.LargeGridConfig(1000, grid.ChurnStable, 7))
	log := event.NewLog(event.MasterCrashed, event.MasterRecovered, event.TrackerReregistered)
	sys.Subscribe(log)
	sc := core.NewScenario("window-spanning outage").
		CrashNameNodeAt(301*sim.Second + 17*sim.Millisecond).
		CrashJobTrackerAt(302 * sim.Second).
		RestartMastersAfter(421*sim.Second + 300*sim.Millisecond)
	if err := sys.Apply(sc); err != nil {
		t.Fatal(err)
	}
	var res *core.Result
	if cuts == nil {
		res = sys.RunWorkload(sched(7, 0.1))
	} else {
		if err := sys.StartWorkload(sched(7, 0.1)); err != nil {
			t.Fatal(err)
		}
		for _, c := range cuts {
			if err := sys.RunTo(sys.RunStart() + c); err != nil {
				t.Fatal(err)
			}
		}
		res = sys.FinishWorkload()
	}
	return crashFingerprint{
		Response:   res.ResponseTime,
		Fired:      sys.Eng.Fired(),
		Flows:      res.Net.FlowsStarted,
		JobsFailed: res.JobsFailed,
		Crashed:    log.Count(event.MasterCrashed),
		Recovered:  log.Count(event.MasterRecovered),
		Rereg:      log.Count(event.TrackerReregistered),
	}
}

// TestMasterCrashAcrossWindowEquivalence crashes both masters and restarts
// them minutes of simulated time later, then replays the same run in RunTo
// windows cut exactly at the first crash, between the crashes, mid-outage,
// exactly at the restart, one microsecond after it and during the recovery
// traffic (safe-mode block reports, tracker re-registrations). The windowed
// run must reproduce the uninterrupted one exactly, recovery events included.
func TestMasterCrashAcrossWindowEquivalence(t *testing.T) {
	straight := masterCrashRun(t, nil)
	windowed := masterCrashRun(t, []sim.Time{
		301*sim.Second + 17*sim.Millisecond,
		301*sim.Second + 500*sim.Millisecond,
		360 * sim.Second,
		421*sim.Second + 300*sim.Millisecond,
		421*sim.Second + 300*sim.Millisecond + sim.Microsecond,
		480 * sim.Second,
	})
	if straight != windowed {
		t.Fatalf("windowed run diverges across the master outage:\nstraight: %+v\nwindowed: %+v", straight, windowed)
	}
	if straight.Crashed != 2 || straight.Recovered != 2 {
		t.Fatalf("outage census off: %+v", straight)
	}
	if straight.Rereg == 0 {
		t.Fatal("no tracker re-registered after the JobTracker restart")
	}
}
