package mapred

import (
	"slices"
	"sort"

	"hog/internal/sim"
)

// This file is the JobTracker's side of event-driven failure detection, the
// twin of internal/hdfs/liveness.go. A tracker that beats plainly cannot time
// out, so the heartbeat driver credits all of them at once with Tick, and a
// plain tracker's effective last beat is max(own, lastTick). Every other live
// tracker is silenced — dead but not yet detected, cut off, dropping beats,
// or retrying a lost master — and scanned on its own beats; the silenced set,
// in ascending node order, is all the dead scan examines. Records enter the
// set when they register or are revived, and when their owner reports that
// they stopped beating plainly (Silence); the owner takes them out with
// Resume right after a real beat. A JobTracker driven by hand therefore
// scans every tracker, exactly like a full scan.

// Tick credits one heartbeat, at the current instant, to every live tracker
// that is not silenced. It stands in for a HeartbeatTracker call on each of
// them, so it is only exact while those calls would assign nothing: no job
// is unfinished. Beats to a crashed JobTracker are lost.
func (jt *JobTracker) Tick() {
	if jt.down {
		return
	}
	jt.lastTick = jt.eng.Now()
}

// Silence records that t stopped beating plainly: it keeps the beats
// credited so far and is scanned on its own beats from now on. Idempotent.
func (jt *JobTracker) Silence(t *TaskTracker) {
	if t != nil {
		jt.silence(t)
	}
}

// Resume records that t beats plainly again. Call it only right after a real
// beat of t (HeartbeatTracker, ReregisterTracker, or a revival), so that its
// own last beat is at least the last tick. Dead trackers stay silenced.
func (jt *JobTracker) Resume(t *TaskTracker) {
	if t == nil || !t.silenced || !t.Alive {
		return
	}
	t.silenced = false
	jt.unscan(t)
}

// LastBeat returns the tracker's effective last heartbeat, bulk credit
// included.
func (jt *JobTracker) LastBeat(t *TaskTracker) sim.Time {
	if t.silenced {
		return t.lastBeat
	}
	return max(t.lastBeat, jt.lastTick)
}

// Expired returns the live trackers whose timeout has run out, in ascending
// node order: the victims the next dead scan marks. Only silenced trackers
// can be among them. A plain tracker was credited at the last tick, at most
// one heartbeat interval ago, and core.Validate keeps the tracker timeout at
// or above that interval.
func (jt *JobTracker) Expired() []*TaskTracker {
	now := jt.eng.Now()
	var out []*TaskTracker
	for _, t := range jt.silenced {
		if now-t.lastBeat > jt.cfg.TrackerTimeout {
			out = append(out, t)
		}
	}
	return out
}

// NumAlive returns the number of trackers the JobTracker believes alive.
func (jt *JobTracker) NumAlive() int { return jt.alive }

func (jt *JobTracker) silence(t *TaskTracker) {
	if t.silenced {
		return
	}
	t.lastBeat = max(t.lastBeat, jt.lastTick)
	t.silenced = true
	if t.Alive {
		jt.scan(t)
	}
}

// revive brings a dead-marked tracker back to life with a fresh beat. It
// returns silenced; its owner resumes it after its next real beat.
func (jt *JobTracker) revive(t *TaskTracker) {
	t.Alive = true
	jt.alive++
	t.lastBeat = jt.eng.Now()
	t.silenced = true
	jt.scan(t)
}

// scan adds t to the silenced set.
func (jt *JobTracker) scan(t *TaskTracker) {
	jt.silenced = slices.Insert(jt.silenced, jt.scanIndex(t), t)
}

// unscan drops t from the silenced set, if it is there.
func (jt *JobTracker) unscan(t *TaskTracker) {
	if i := jt.scanIndex(t); i < len(jt.silenced) && jt.silenced[i] == t {
		jt.silenced = slices.Delete(jt.silenced, i, i+1)
	}
}

func (jt *JobTracker) scanIndex(t *TaskTracker) int {
	return sort.Search(len(jt.silenced), func(i int) bool { return jt.silenced[i].Node >= t.Node })
}
