package hdfs

import (
	"slices"
	"sort"

	"hog/internal/sim"
)

// This file is the namenode's side of event-driven failure detection. A
// datanode that beats plainly — every heartbeat reaches the namenode — cannot
// time out, so the heartbeat driver does not deliver its beats one by one:
// Tick credits one beat to all of them at once, and a plain node's effective
// last beat is max(own, lastTick). Every other live node is silenced: dead
// but not yet detected, cut off by a partition, dropping beats under gray
// degradation, or retrying a lost master. Its own beats are exact, and the
// silenced set, kept in ascending ID order, is all the dead scan examines.
//
// A record enters the silenced set when it registers or is revived, and
// whenever its owner reports that it stopped beating plainly (Silence). The
// owner takes it out with Resume right after a real beat. A namenode driven
// by hand, with no Silence/Resume/Tick calls, therefore scans every node on
// its own beats, exactly like a full scan.

// Tick credits one heartbeat, at the current instant, to every live datanode
// that is not silenced — what a HeartbeatDatanode call on each of them would
// do. Beats to a crashed namenode are lost.
func (nn *Namenode) Tick() {
	if nn.down {
		return
	}
	nn.lastTick = nn.eng.Now()
}

// Silence records that d stopped beating plainly: it keeps the beats
// credited so far and is scanned on its own beats from now on. Idempotent.
func (nn *Namenode) Silence(d *DatanodeInfo) {
	if d != nil {
		nn.silence(d)
	}
}

// Resume records that d beats plainly again. Call it only right after a real
// beat of d (HeartbeatDatanode, Reregister, or a recovery), so that its own
// last beat is at least the last tick. Dead nodes stay silenced.
func (nn *Namenode) Resume(d *DatanodeInfo) {
	if d == nil || !d.silenced || !d.Alive {
		return
	}
	d.silenced = false
	nn.unscan(d)
}

// LastBeat returns the datanode's effective last heartbeat, bulk credit
// included.
func (nn *Namenode) LastBeat(d *DatanodeInfo) sim.Time {
	if d.silenced {
		return d.lastBeat
	}
	return max(d.lastBeat, nn.lastTick)
}

// Expired returns the live datanodes whose dead timeout has run out, in
// ascending ID order: the victims the next dead scan marks. Only silenced
// nodes can be among them. A plain node was credited at the last tick, at
// most one heartbeat interval ago, and core.Validate keeps the dead timeout
// at or above that interval.
func (nn *Namenode) Expired() []*DatanodeInfo {
	now := nn.eng.Now()
	var out []*DatanodeInfo
	for _, d := range nn.silenced {
		if now-d.lastBeat > nn.cfg.DeadTimeout {
			out = append(out, d)
		}
	}
	return out
}

func (nn *Namenode) silence(d *DatanodeInfo) {
	if d.silenced {
		return
	}
	d.lastBeat = max(d.lastBeat, nn.lastTick)
	d.silenced = true
	if d.Alive {
		nn.scan(d)
	}
}

// revive brings a dead-marked node back to life with a fresh beat. It
// returns silenced; its owner resumes it after its next real beat.
func (nn *Namenode) revive(d *DatanodeInfo) {
	d.Alive = true
	d.lastBeat = nn.eng.Now()
	d.silenced = true
	nn.scan(d)
}

// scan adds d to the silenced set.
func (nn *Namenode) scan(d *DatanodeInfo) {
	nn.silenced = slices.Insert(nn.silenced, nn.scanIndex(d), d)
}

// unscan drops d from the silenced set, if it is there.
func (nn *Namenode) unscan(d *DatanodeInfo) {
	if i := nn.scanIndex(d); i < len(nn.silenced) && nn.silenced[i] == d {
		nn.silenced = slices.Delete(nn.silenced, i, i+1)
	}
}

func (nn *Namenode) scanIndex(d *DatanodeInfo) int {
	return sort.Search(len(nn.silenced), func(i int) bool { return nn.silenced[i].ID >= d.ID })
}
